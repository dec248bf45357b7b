"""Owner protocol: keys, tags, challenges, verification, audit responses."""

import dataclasses
import math

import pytest

from sevdel import cloud, codec, contract, owner
from sevdel.enclave import EnclaveRegistry
from sevdel.errors import CountOutOfRange, MalformedProof, MissingBlock
from sevdel.groups import block_point, pairing_eq, vgen_points
from sevdel.nizk import prove_opening
from sevdel.rng import SeededRng


def _outsourced(params, size=200, s=2, seed=b"owner-fixt"):
    rng = SeededRng(seed)
    data = rng.child("file").read(size)
    manifest, blocks = codec.split(data, s, params.sector_bits)
    okeys = owner.keygen(params, rng.child("keys"))
    gens, tags = owner.outsource(params, okeys, manifest, blocks, rng.child("out"))
    return rng, data, manifest, blocks, okeys, gens, tags


def _encrypted(params, rng, manifest, blocks):
    registry = EnclaveRegistry()
    enclave = registry.create(manifest.file_id)
    cts, v_pub = cloud.encrypt_file(params, enclave, manifest, blocks, rng.child("enc"))
    return registry, enclave, cts, v_pub


# -- keygen ------------------------------------------------------------------

def test_keygen_distinct_keys(any_params):
    rng = SeededRng(b"kg")
    ws = {owner.keygen(any_params, rng.child(str(i))).w for i in range(100)}
    assert len(ws) == 100


def test_keygen_public_key_definition(any_params):
    keys = owner.keygen(any_params, SeededRng(b"kg-def"))
    # e(g1, W) = e(g1, g2)^w = e(g1^w, g2)
    assert pairing_eq((any_params.g1, keys.W), (any_params.g1 ** keys.w, any_params.g2))
    assert not pairing_eq((any_params.g1, keys.W), (any_params.g1 ** (keys.w + 1), any_params.g2))


def test_keygen_public_key_deserializes(any_params):
    keys = owner.keygen(any_params, SeededRng(b"kg-ser"))
    assert any_params.g2_from_bytes(keys.W.to_bytes()) == keys.W


# -- outsource ----------------------------------------------------------------

def test_outsource_all_zero_blocks(any_params):
    data = b"\x00" * 24
    manifest, blocks = codec.split(data, 2, any_params.sector_bits)
    keys = owner.keygen(any_params, SeededRng(b"zero"))
    _, tags = owner.outsource(any_params, keys, manifest, blocks, SeededRng(b"zero2"))
    for i, phi in enumerate(tags.phi, start=1):
        assert phi == block_point(any_params, manifest.file_id, i) ** keys.w


def test_outsource_single_sector_recomputed(any_params):
    # n=1, s=1, m=3: phi_1 = (H(I_M||1) * u_1^3)^w recomputed from scratch
    manifest, blocks = codec.split(b"\x03", 1, any_params.sector_bits)
    assert [list(row) for row in blocks.rows] == [[3]]
    keys = owner.keygen(any_params, SeededRng(b"single"))
    gens, tags = owner.outsource(any_params, keys, manifest, blocks, SeededRng(b"single2"))
    expected = (block_point(any_params, manifest.file_id, 1) * gens.u[0] ** 3) ** keys.w
    assert tags.phi[0] == expected


def test_outsource_pairing_equation_oracle(any_params):
    # e(phi_i, g2) == e(H(I_M||i) * prod u_j^{m_ij}, W) on a random file
    _, _, manifest, blocks, okeys, gens, tags = _outsourced(any_params)
    for i in range(1, manifest.n + 1):
        base = block_point(any_params, manifest.file_id, i)
        for j in range(manifest.s):
            base = base * gens.u[j] ** blocks.rows[i - 1][j]
        assert pairing_eq((tags.phi[i - 1], any_params.g2), (base, okeys.W))


def test_outsource_shape_mismatch(any_params):
    manifest, blocks = codec.split(bytes(16), 2, any_params.sector_bits)
    other_manifest, _ = codec.split(bytes(32), 2, any_params.sector_bits)
    keys = owner.keygen(any_params, SeededRng(b"shape"))
    from sevdel.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        owner.outsource(any_params, keys, other_manifest, blocks)


# -- challenges -----------------------------------------------------------------

def test_challenge_exhaustive_and_bounds(toy_params):
    manifest, _ = codec.split(bytes(40), 2, toy_params.sector_bits)
    ch = owner.gen_challenge(manifest, manifest.n, rng_seed=3)
    assert ch.indices == tuple(range(1, manifest.n + 1))
    assert all(l != 0 for _, l in ch.items)
    with pytest.raises(CountOutOfRange):
        owner.gen_challenge(manifest, 0, rng_seed=3)
    with pytest.raises(CountOutOfRange):
        owner.gen_challenge(manifest, manifest.n + 1, rng_seed=3)


def test_challenge_seed_reproducible(toy_params):
    manifest, _ = codec.split(bytes(4096), 2, toy_params.sector_bits)
    a = owner.gen_challenge(manifest, 10, rng_seed=99)
    b = owner.gen_challenge(manifest, 10, rng_seed=99)
    c = owner.gen_challenge(manifest, 10, rng_seed=100)
    assert a == b
    assert a != c
    assert len(set(a.indices)) == 10


ILL_TYPED_CHALLENGES = {   # name: (items, nonce)
    "items-list": ([(1, 5)], b""),
    "item-list": (([1, 5],), b""),
    "item-triple": (((1, 5, 7),), b""),
    "index-str": ((("1", 5),), b""),
    "index-bool": (((True, 5),), b""),
    "coefficient-float": (((1, 5.0),), b""),
    "nonce-str": (((1, 5),), "00"),
}


@pytest.mark.parametrize("case", sorted(ILL_TYPED_CHALLENGES))
def test_challenge_refuses_to_be_built_ill_typed(case):
    # never a Challenge, so no verifier sees one; dataclasses.replace goes
    # through the same check.  The range cases are BAD_CHALLENGES in
    # test_contract.py
    items, nonce = ILL_TYPED_CHALLENGES[case]
    with pytest.raises(MalformedProof, match="int pairs"):
        owner.Challenge(items=items, nonce=nonce)
    good = owner.Challenge(items=((1, 1), (2, (1 << 128) - 1)), nonce=b"")
    with pytest.raises(MalformedProof, match="int pairs"):
        dataclasses.replace(good, items=items, nonce=nonce)


def test_challenge_single_corruption_detection_rate(toy_params):
    # sampling 100 of 1000 blocks, one corrupted: empirical hit rate over
    # 10^4 trials within 2 points of 1 - C(999,100)/C(1000,100) = 0.1
    n, count, trials = 1000, 100, 10_000
    manifest = codec.FileManifest(
        file_id=b"\x05" * 32, n=n, s=1, sector_bits=16, original_len=n * 2)
    expected = 1 - math.comb(n - 1, count) / math.comb(n, count)
    assert abs(expected - 0.1) < 1e-9
    hits = 0
    corrupted = 123
    for t in range(trials):
        ch = owner.gen_challenge(manifest, count, rng_seed=t)
        if corrupted in ch.indices:
            hits += 1
    assert abs(hits / trials - expected) < 0.02


# -- verification: completeness, soundness, structure ----------------------------

def test_verify_completeness(any_params):
    rng, _, manifest, blocks, okeys, gens, tags = _outsourced(any_params)
    skeys = cloud.server_keygen(any_params, rng.child("srv"))
    _, enclave, cts, v_pub = _encrypted(any_params, rng, manifest, blocks)
    ch = owner.gen_challenge(manifest, min(4, manifest.n), rng_seed=5)
    proof = cloud.prove_encryption(any_params, enclave, manifest, blocks, cts, tags,
                                   ch, rng.child("prove"))
    assert owner.verify_encryption_proof(
        any_params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, proof)


def test_verify_rejects_forged_tag(any_params):
    rng, _, manifest, blocks, okeys, gens, tags = _outsourced(any_params)
    skeys = cloud.server_keygen(any_params, rng.child("srv"))
    _, enclave, cts, v_pub = _encrypted(any_params, rng, manifest, blocks)
    ch = owner.gen_challenge(manifest, min(4, manifest.n), rng_seed=6)
    hit = ch.indices[0] - 1
    phis = list(tags.phi)
    phis[hit] = any_params.hash_to_g1(b"sevdel/block", b"random point")
    forged = owner.TagSet(phi=tuple(phis))
    proof = cloud.prove_encryption(any_params, enclave, manifest, blocks, cts, forged,
                                   ch, rng.child("p"))
    assert not owner.verify_encryption_proof(
        any_params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, proof)


def test_verify_rejects_skipped_ciphertext(any_params):
    # cloud stored a non-encryption of one challenged block
    rng, _, manifest, blocks, okeys, gens, tags = _outsourced(any_params)
    skeys = cloud.server_keygen(any_params, rng.child("srv"))
    _, enclave, cts, v_pub = _encrypted(any_params, rng, manifest, blocks)
    ch = owner.gen_challenge(manifest, min(4, manifest.n), rng_seed=7)
    group = any_params.group
    hit = ch.indices[0] - 1
    cts.rows_prime[hit] = [group.g1_pow(any_params.g1.raw, m) for m in blocks.rows[hit]]
    cts.rows_dprime[hit] = [group.g1_identity() for _ in blocks.rows[hit]]
    proof = cloud.prove_encryption(any_params, enclave, manifest, blocks, cts, tags,
                                   ch, rng.child("p"))
    assert not owner.verify_encryption_proof(
        any_params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, proof)


def test_verify_refuses_identity_public_key(any_params):
    # no encryption at all: V, and so every E'', is the identity, E' = g1^m
    # and the proof holds with witnesses R_j = 0
    params = any_params
    rng, _, manifest, blocks, okeys, gens, tags = _outsourced(params)
    skeys = cloud.server_keygen(params, rng.child("srv"))
    ch = owner.gen_challenge(manifest, min(4, manifest.n), rng_seed=9)
    rows = [i - 1 for i in ch.indices]
    ls = [l for _, l in ch.items]
    q = [sum(l * blocks.rows[i][j] for i, l in zip(rows, ls)) % params.order
         for j in range(manifest.s)]
    ident = params.g1_identity()
    p1 = [(params.g1 ** qj, ident) for qj in q]
    p2 = params.g1_msm([tags.phi[i] for i in rows], ls)
    context = owner.enc_proof_context(params, manifest, ch)
    c, z = prove_opening(params, ident, p1, p2, q, [0] * manifest.s, context, rng.child("p"))
    proof = cloud.EncProof(p1_prime=tuple(a for a, _ in p1), p1_dprime=tuple(b for _, b in p1),
                           p2=p2, q=tuple(q), challenge=c, response=z)
    with pytest.raises(MalformedProof, match="identity"):
        owner.verify_encryption_proof(
            params, manifest, gens.u, okeys.W, skeys.A, ident, ch, proof)


def test_verify_malformed_proof_rejected(any_params):
    rng, _, manifest, blocks, okeys, gens, tags = _outsourced(any_params)
    skeys = cloud.server_keygen(any_params, rng.child("srv"))
    _, enclave, cts, v_pub = _encrypted(any_params, rng, manifest, blocks)
    ch = owner.gen_challenge(manifest, min(4, manifest.n), rng_seed=8)
    proof = cloud.prove_encryption(any_params, enclave, manifest, blocks, cts, tags,
                                   ch, rng.child("p"))
    import dataclasses
    truncated = dataclasses.replace(proof, q=proof.q[:-1])
    with pytest.raises(MalformedProof):
        owner.verify_encryption_proof(
            any_params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, truncated)
    oversized = dataclasses.replace(proof, q=proof.q[:-1] + (any_params.order,))
    with pytest.raises(MalformedProof):
        owner.verify_encryption_proof(
            any_params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, oversized)


def test_tag_soundness_small_instance_exhaustive(toy_params):
    # toy group, n=4, s=2: every single-sector tamper of the cloud's copy
    # fails the aggregated tag equation for every challenge containing the
    # block, and passes when the challenge misses it
    params = toy_params
    rng = SeededRng(b"small-sound")
    data = rng.child("file").read(4 * 2 * 2)  # n=4 blocks of s=2 16-bit sectors
    manifest, blocks = codec.split(data, 2, params.sector_bits)
    assert manifest.n == 4
    okeys = owner.keygen(params, rng.child("keys"))
    gens, tags = owner.outsource(params, okeys, manifest, blocks, rng.child("out"))
    skeys = cloud.server_keygen(params, rng.child("srv"))
    for i_star in range(manifest.n):
        for j_star in range(manifest.s):
            for delta in (1, 7, 1000):
                tampered = [row[:] for row in blocks.rows]
                tampered[i_star][j_star] = (tampered[i_star][j_star] + delta) % (1 << 16)
                tampered_blocks = codec.BlockMatrix(tampered)
                registry = EnclaveRegistry()
                enclave = registry.create(manifest.file_id)
                cts, v_pub = cloud.encrypt_file(params, enclave, manifest,
                                                tampered_blocks, rng.child("e"))
                for count, seed in ((manifest.n, 1), (1, 2)):
                    ch = owner.gen_challenge(manifest, count, rng_seed=seed)
                    proof = cloud.prove_encryption(
                        params, enclave, manifest, tampered_blocks, cts, tags, ch,
                        rng.child("p"))
                    ok = owner.verify_encryption_proof(
                        params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, proof)
                    if i_star + 1 in ch.indices:
                        assert not ok, "tampered sector passed the tag equation"
                    else:
                        assert ok, "untouched blocks should verify"


def test_proof_transcript_reveals_no_sector_value(toy_params):
    # structural zero-knowledge check: the only scalars in a transcript are
    # multi-term aggregates, the blinded response and the Fiat-Shamir challenge
    params = toy_params
    rng, _, manifest, blocks, okeys, gens, tags = _outsourced(params, size=64, s=2,
                                                              seed=b"zk")
    _, enclave, cts, v_pub = _encrypted(params, rng, manifest, blocks)
    ch = owner.gen_challenge(manifest, min(4, manifest.n), rng_seed=11)
    assert len(ch.items) >= 2  # aggregates must mix at least two blocks
    proof = cloud.prove_encryption(params, enclave, manifest, blocks, cts, tags,
                                   ch, rng.child("p"))
    from sevdel.groups import G1Elem
    for elem in (*proof.p1_prime, *proof.p1_dprime, proof.p2):
        assert isinstance(elem, G1Elem)
    scalars = set(proof.q) | {proof.challenge, proof.response}
    sector_values = {v for row in blocks.rows for v in row}
    assert not scalars & sector_values, "raw sector value appeared in transcript"


# -- audit responses ---------------------------------------------------------------

def test_audit_singleton_aggregation(any_params, ct_pair):
    rng, _, manifest, blocks, okeys, gens, tags = _outsourced(any_params)
    skeys = cloud.server_keygen(any_params, rng.child("srv"))
    _, enclave, cts, _ = _encrypted(any_params, rng, manifest, blocks)
    v_gens = vgen_points(any_params, manifest.file_id, manifest.s)
    enc_tags = cloud.gen_enc_tags(any_params, skeys, manifest, cts, gens.u, v_gens)
    ch = owner.Challenge(items=((2, 1),), nonce=b"\x00" * 16)
    resp = owner.audit_respond(any_params, manifest, cts, enc_tags, ch)
    # rows travel as the canonical encodings of the held components
    pairs = [ct_pair(cts, 1, j) for j in range(manifest.s)]
    assert resp.revealed_prime == {2: tuple(p.to_bytes() for p, _ in pairs)}
    assert resp.revealed_dprime == {2: tuple(d.to_bytes() for _, d in pairs)}
    # no aggregate travels: the verifier raises the one registered tag
    # sigma_2 to the coefficient 1 itself, and no other tag in its place
    assert [f.name for f in dataclasses.fields(resp)] == ["revealed_prime", "revealed_dprime"]
    sigma = enc_tags.sigma
    assert contract.verify_audit_response(any_params, manifest.file_id, gens.u, v_gens,
                                          skeys.A, sigma, ch, resp)
    swapped = (sigma[1], sigma[0], *sigma[2:])
    assert not contract.verify_audit_response(any_params, manifest.file_id, gens.u, v_gens,
                                              skeys.A, swapped, ch, resp)


def test_audit_missing_ciphertexts(any_params):
    rng, _, manifest, blocks, okeys, gens, tags = _outsourced(any_params)
    skeys = cloud.server_keygen(any_params, rng.child("srv"))
    _, enclave, cts, _ = _encrypted(any_params, rng, manifest, blocks)
    enc_tags = cloud.gen_enc_tags(any_params, skeys, manifest, cts, gens.u,
                                  vgen_points(any_params, manifest.file_id, manifest.s))
    ch = owner.gen_challenge(manifest, min(3, manifest.n), rng_seed=13)
    with pytest.raises(MissingBlock):
        owner.audit_respond(any_params, manifest, None, enc_tags, ch)
    # partial leak: one challenged row absent
    cts.rows_prime[ch.indices[0] - 1] = None
    with pytest.raises(MissingBlock):
        owner.audit_respond(any_params, manifest, cts, enc_tags, ch)


# -- owner-signed deletion requests ---------------------------------------------

def test_delete_request_signature(any_params):
    keys = owner.keygen(any_params, SeededRng(b"del"))
    other = owner.keygen(any_params, SeededRng(b"del2"))
    payload, sig = owner.sign_delete_request(any_params, keys, b"\x01" * 32, 17)
    assert owner.verify_delete_request(any_params, keys.W, payload, sig)
    assert not owner.verify_delete_request(any_params, other.W, payload, sig)
    assert not owner.verify_delete_request(any_params, keys.W, payload + b"x", sig)
