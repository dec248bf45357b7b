"""Cloud protocol: encryption, bounded dlog, ciphertext tags, proving."""

import dataclasses
import json
import sys
from array import array

import pytest

from sevdel import bn254, cloud, codec, groups, nizk, owner, wire
from sevdel.cloud import _SEAL_KEY
from sevdel.enclave import EnclaveRegistry
from sevdel.errors import (
    DimensionMismatch,
    DlogOutOfRange,
    EnclaveDestroyed,
    InvalidElement,
    MalformedProof,
    MissingBlock,
    SecretNotFound,
    UnknownFile,
)
from sevdel.groups import elem_to_scalar, pairing_eq, scalar_from_bytes, setup, vgen_points
from sevdel.rng import SeededRng


def _setup_file(params, size=96, s=2, seed=b"cloud-fixt"):
    rng = SeededRng(seed)
    data = rng.child("file").read(size)
    manifest, blocks = codec.split(data, s, params.sector_bits)
    registry = EnclaveRegistry()
    enclave = registry.create(manifest.file_id)
    cts, v_pub = cloud.encrypt_file(params, enclave, manifest, blocks, rng.child("e"))
    return rng, data, manifest, blocks, registry, enclave, cts, v_pub


def test_zero_plaintext_structure(any_params, ct_pair):
    # for m = 0 the first component is exactly (E'')^v
    data = b"\x00" * 8
    manifest, blocks = codec.split(data, 2, any_params.sector_bits)
    registry = EnclaveRegistry()
    enclave = registry.create(manifest.file_id)
    cts, v_pub = cloud.encrypt_file(any_params, enclave, manifest, blocks,
                                    SeededRng(b"zero"))
    v = scalar_from_bytes(any_params.group, enclave.unseal(_SEAL_KEY))
    assert any_params.g1 ** v == v_pub
    for i in range(manifest.n):
        for j in range(manifest.s):
            e_prime, e_dprime = ct_pair(cts, i, j)
            assert e_prime == e_dprime ** v


def test_probabilistic_encryption(any_params):
    rng = SeededRng(b"prob")
    data = b"same plaintext bytes"
    manifest, blocks = codec.split(data, 2, any_params.sector_bits)
    registry = EnclaveRegistry()
    first = registry.create(manifest.file_id)
    cts1, _ = cloud.encrypt_file(any_params, first, manifest, blocks, rng.child("1"))
    cloud.delete_file(registry, manifest.file_id)
    second = registry.create(manifest.file_id)
    cts2, _ = cloud.encrypt_file(any_params, second, manifest, blocks, rng.child("2"))
    for i in range(manifest.n):
        for j in range(manifest.s):
            assert cts1.rows_prime[i][j] != cts2.rows_prime[i][j]
            assert cts1.rows_dprime[i][j] != cts2.rows_dprime[i][j]


def test_hundred_encryptions_distinct_randomness(toy_params):
    # invariant: across 100 encryptions of one block, all E'' differ
    manifest, blocks = codec.split(b"\x01\x02", 1, toy_params.sector_bits)
    rng = SeededRng(b"hundred")
    seen = set()
    for k in range(100):
        registry = EnclaveRegistry()
        enclave = registry.create(manifest.file_id)
        cts, _ = cloud.encrypt_file(toy_params, enclave, manifest, blocks,
                                    rng.child(str(k)))
        seen.add(toy_params.group.g1_to_bytes(cts.rows_dprime[0][0]))
    assert len(seen) == 100


def test_roundtrip_random_files(any_params):
    rng = SeededRng(b"roundtrip")
    sizes = (1, 17, 333, 4096) if any_params.group.name == "toy" else (1, 40)
    for size in sizes:
        data = rng.child(str(size)).read(size)
        manifest, blocks = codec.split(data, 4, any_params.sector_bits)
        registry = EnclaveRegistry()
        enclave = registry.create(manifest.file_id)
        cts, _ = cloud.encrypt_file(any_params, enclave, manifest, blocks,
                                    rng.child("e" + str(size)))
        back = cloud.decrypt_file(any_params, enclave, cts)
        assert codec.join(manifest, back) == data


def test_decrypt_block_matches_sector(any_params, ct_pair):
    _, _, manifest, blocks, _, enclave, cts, _ = _setup_file(any_params)
    assert cloud.decrypt_block(any_params, enclave, ct_pair(cts, 0, 1)) == blocks.rows[0][1]


def test_decrypt_boundary_32bit(toy_params32, ct_pair):
    # largest representable sector survives the giant-step walk
    top = (1 << 32) - 1
    data = top.to_bytes(4, "little")
    manifest, blocks = codec.split(data, 1, 32)
    assert [list(row) for row in blocks.rows] == [[top]]
    registry = EnclaveRegistry()
    enclave = registry.create(manifest.file_id)
    cts, _ = cloud.encrypt_file(toy_params32, enclave, manifest, blocks,
                                SeededRng(b"boundary"))
    assert cloud.decrypt_block(toy_params32, enclave, ct_pair(cts, 0, 0)) == top


def test_decrypt_boundary_bn254(bn_params, ct_pair):
    top = (1 << bn_params.sector_bits) - 1
    data = bytes([top])
    manifest, blocks = codec.split(data, 1, bn_params.sector_bits)
    registry = EnclaveRegistry()
    enclave = registry.create(manifest.file_id)
    cts, _ = cloud.encrypt_file(bn_params, enclave, manifest, blocks,
                                SeededRng(b"bnb"))
    assert cloud.decrypt_block(bn_params, enclave, ct_pair(cts, 0, 0)) == top


def test_corrupted_ciphertext_dlog_out_of_range(toy_params32, ct_pair):
    _, _, manifest, blocks, _, enclave, cts, _ = _setup_file(toy_params32, size=8, s=1)
    e_prime, e_dprime = ct_pair(cts, 0, 0)
    bumped = e_prime * (toy_params32.g1 ** (1 << 40))
    with pytest.raises(DlogOutOfRange):
        cloud.decrypt_block(toy_params32, enclave, (bumped, e_dprime))


# -- decryption from the sealed randomness -----------------------------------

def _oracle(params, enclave, e_pair):
    """decrypt_block, which still computes E' / (E'')^v, or the error it raises."""
    try:
        return cloud.decrypt_block(params, enclave, e_pair)
    except DlogOutOfRange:
        return DlogOutOfRange


def test_decrypt_file_matches_decrypt_block_on_every_sector(any_params, ct_pair):
    _, _, manifest, blocks, _, enclave, cts, _ = _setup_file(any_params, size=40, s=3)
    back = cloud.decrypt_file(any_params, enclave, cts)
    assert back.rows == blocks.rows
    for i in range(manifest.n):
        for j in range(manifest.s):
            assert back.rows[i][j] == _oracle(any_params, enclave, ct_pair(cts, i, j))


@pytest.mark.parametrize("group, bits", [("toy", 8), ("toy", 16), ("toy", 32),
                                         ("bn254", 8), ("bn254", 16), ("bn254", 32)])
def test_decrypt_edges_of_the_centred_dlog_table(group, bits, ct_pair):
    # the baby-step table holds (m - half) * g1 for m below 2^min(bits, 16):
    # both ends of the range, both sides of its centre, and, at 32 bits,
    # both sides of the table's centre and of its top, 2^16, decrypt;
    # g1^(2^bits) lifted, just past the top entry, and g1^-1, just below
    # the bottom one, are misses.  A lone 32-bit point in window w walks w
    # giant steps, up to 2 to 3 s on bn254, so there the oracle reads
    # only the two bottom windows and each refusal is checked through
    # decrypt_file alone
    params = setup(group, bits)
    half = 1 << (bits - 1)
    values = [0, 1, half - 1, half, half + 1, (1 << bits) - 1]
    if bits == 32:
        values += [(1 << 15) - 1, 1 << 15, (1 << 15) + 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1]
    data = b"".join(m.to_bytes(bits // 8, "little") for m in values)
    manifest, blocks = codec.split(data, len(values), bits)
    assert [list(row) for row in blocks.rows] == [values]
    enclave = EnclaveRegistry().create(manifest.file_id)
    cts, _ = cloud.encrypt_file(params, enclave, manifest, blocks, SeededRng(b"dlog-edges"))
    assert [list(row) for row in cloud.decrypt_file(params, enclave, cts).rows] == [values]
    quick = group == "toy" or bits < 32
    cheap = [j for j, m in enumerate(values) if quick or m < 1 << 17]
    assert [_oracle(params, enclave, ct_pair(cts, 0, j)) for j in cheap] == [values[j] for j in cheap]
    g1 = params.g1.raw
    for m, shift in (((1 << bits) - 1, g1), (0, params.group.g1_pow(g1, -1))):
        tampered = dataclasses.replace(cts, rows_prime=[row[:] for row in cts.rows_prime])
        j = values.index(m)
        tampered.rows_prime[0][j] = params.group.g1_add(tampered.rows_prime[0][j], shift)
        if quick:
            assert _oracle(params, enclave, ct_pair(tampered, 0, j)) is DlogOutOfRange
        with pytest.raises(DlogOutOfRange):
            cloud.decrypt_file(params, enclave, tampered)


def _encrypt_32(params, values, s, seed):
    # a 32-bit file holding exactly values, s sectors a block, and its enclave
    data = b"".join(m.to_bytes(4, "little") for m in values)
    manifest, blocks = codec.split(data, s, 32)
    assert [m for row in blocks.rows for m in row] == values
    enclave = EnclaveRegistry().create(manifest.file_id)
    cts, _ = cloud.encrypt_file(params, enclave, manifest, blocks, SeededRng(seed))
    return manifest, data, enclave, cts


def test_decrypt_window_edges_of_the_lockstep_walk(toy_params32, ct_pair):
    # one 32-bit chunk of hits and misses: both ends of [0, 2^32), both
    # sides of k * 2^16 for k = 1, 2 and 2^16 - 1, the last being the top
    # window's floor 2^32 - 2^16, and values inside the bottom window
    top = 1 << 32
    values = [0, 1, 7, (1 << 15) + 3, top - 1, top - 2]
    for k in (1, 2, (1 << 16) - 1):
        values += [(k << 16) - 1, k << 16, (k << 16) + 1]
    values += [top - (1 << 16) - 1, top - (1 << 16)]
    manifest, data, enclave, cts = _encrypt_32(toy_params32, values, len(values), b"windows")
    back = cloud.decrypt_file(toy_params32, enclave, cts)
    assert [list(row) for row in back.rows] == [values]
    assert codec.join(manifest, back) == data
    assert [_oracle(toy_params32, enclave, ct_pair(cts, 0, j)) for j in range(len(values))] == values


def test_one_corrupt_sector_among_32_bit_misses_is_refused(toy_params32):
    # the misses walk in lockstep; the one corrupt E' among them, still
    # missing after the last window, makes the chunk DlogOutOfRange
    values = [(k * 0x9E3779B9) % (1 << 32) | (1 << 16) for k in range(1, 33)]
    _, _, enclave, cts = _encrypt_32(toy_params32, values, 8, b"corrupt-32")
    assert [m for row in cloud.decrypt_file(toy_params32, enclave, cts).rows
            for m in row] == values
    tampered = dataclasses.replace(cts, rows_prime=[row[:] for row in cts.rows_prime])
    tampered.rows_prime[2][5] = toy_params32.group.g1_add(tampered.rows_prime[2][5], 1 << 40)
    with pytest.raises(DlogOutOfRange):
        cloud.decrypt_file(toy_params32, enclave, tampered)


def test_decrypt_file_walks_only_its_table_misses(monkeypatch):
    # each chunk is looked up in the baby-step table in one pass, and a
    # giant step looks up only the points still missing: a 16-bit file of
    # three chunks takes no giant step, nor does a corrupted E' in its
    # second chunk, a 32-bit file's first giant step holds exactly its
    # sectors at or above 2^16 and its walk ends at the window of its
    # largest, UTF-16 ASCII text walks to the window of its largest second
    # character, 125 giant steps for "}", and one
    # corrupted E' in the second of three chunks of small 32-bit values
    # walks alone
    toy = setup("toy", 16).group
    sizes = []
    real = toy.g1_dlog_lookup

    def counting(table, points):
        sizes.append(len(points))
        return real(table, points)

    monkeypatch.setattr(toy, "g1_dlog_lookup", counting)
    params16 = setup("toy", 16)
    _, data, manifest, _, _, enclave, cts, _ = _setup_file(params16, size=3000, s=8)
    assert codec.join(manifest, cloud.decrypt_file(params16, enclave, cts)) == data
    assert sizes == [512, 512, 480]
    del sizes[:]
    tampered = dataclasses.replace(cts, rows_prime=[row[:] for row in cts.rows_prime])
    tampered.rows_prime[100][7] = params16.group.g1_add(tampered.rows_prime[100][7], 1 << 40)
    with pytest.raises(DlogOutOfRange):
        cloud.decrypt_file(params16, enclave, tampered)
    assert sizes == [512, 512]
    del sizes[:]
    params32 = setup("toy", 32)
    values = [0, 1, (1 << 16) - 1, 1 << 16, (1 << 32) - 1, 0xDEADBEEF, 7, (1 << 16) + 1]
    manifest, data32, enclave, cts = _encrypt_32(params32, values, 4, b"miss-32")
    assert codec.join(manifest, cloud.decrypt_file(params32, enclave, cts)) == data32
    assert sizes[:3] == [8, sum(m >= 1 << 16 for m in values), 2] == [8, 4, 2]
    assert sorted(sizes[1:], reverse=True) == sizes[1:] and len(sizes) == 1 << 16
    del sizes[:]
    text = bytes(range(32, 126)).decode().encode("utf-16-le")
    pairs = [int.from_bytes(text[k:k + 4], "little") for k in range(0, len(text), 4)]
    manifest, _, enclave, cts = _encrypt_32(params32, pairs, 1, b"miss-32-text")
    assert codec.join(manifest, cloud.decrypt_file(params32, enclave, cts)) == text
    assert len(sizes) == 1 + 125
    del sizes[:]
    small = [(k * 40503) % (1 << 16) for k in range(1536)]
    _, _, enclave, cts = _encrypt_32(params32, small, 8, b"miss-32-small")
    tampered = dataclasses.replace(cts, rows_prime=[row[:] for row in cts.rows_prime])
    tampered.rows_prime[100][7] = params32.group.g1_add(tampered.rows_prime[100][7], 1 << 40)
    with pytest.raises(DlogOutOfRange):
        cloud.decrypt_file(params32, enclave, tampered)
    assert sizes == [512, 512] + [1] * ((1 << 16) - 1)


def test_decrypt_file_refuses_another_files_matrix(toy_params):
    _, _, _, _, _, enclave, _, _ = _setup_file(toy_params, size=96, s=2)
    _, _, _, _, _, _, other, _ = _setup_file(toy_params, size=96, s=3, seed=b"other")
    _, _, _, _, _, _, longer, _ = _setup_file(toy_params, size=100, s=2, seed=b"longer")
    for cts in (other, longer):
        with pytest.raises(DimensionMismatch):
            cloud.decrypt_file(toy_params, enclave, cts)


def test_decrypt_file_tampered_prime_fails_as_the_oracle(any_params, ct_pair):
    # a wrong E' comes out as the oracle's wrong sector or as DlogOutOfRange
    params = any_params
    _, _, manifest, blocks, _, enclave, cts, _ = _setup_file(params, size=12, s=2)
    group = params.group
    shifts = [params.g1.raw, group.g1_pow(params.g1.raw, 1 << 40),
              params.hash_to_g1(b"sevdel/block", b"tamper").raw]
    for shift in shifts:
        tampered = dataclasses.replace(cts, rows_prime=[row[:] for row in cts.rows_prime])
        tampered.rows_prime[1][0] = group.g1_add(tampered.rows_prime[1][0], shift)
        expected = _oracle(params, enclave, ct_pair(tampered, 1, 0))
        if expected is DlogOutOfRange:
            with pytest.raises(DlogOutOfRange):
                cloud.decrypt_file(params, enclave, tampered)
        else:
            assert expected != blocks.rows[1][0]
            assert cloud.decrypt_file(params, enclave, tampered).rows[1][0] == expected


def test_decrypt_file_ignores_a_valid_but_wrong_dprime(any_params):
    # E'' is not read: another valid point in its place still decrypts right
    params = any_params
    _, _, manifest, blocks, _, enclave, cts, _ = _setup_file(params, size=12, s=2)
    tampered = dataclasses.replace(cts, rows_dprime=[row[:] for row in cts.rows_dprime])
    tampered.rows_dprime[0][1] = params.hash_to_g1(b"sevdel/block", b"other").raw
    tampered.rows_dprime[1][0] = params.g1_identity().raw
    assert cloud.decrypt_file(params, enclave, tampered).rows == blocks.rows


def test_off_curve_dprime_is_refused_on_decode(any_params):
    params = any_params
    _, _, manifest, _, _, _, cts, _ = _setup_file(params, size=12, s=2)
    blob = wire.encode_ciphertexts(params, cts)
    width = params.group.g1_bytes
    start = len(blob) - manifest.n * manifest.s * width   # first E''
    if params.group.name == "toy":
        bad = b"\x11" + b"\xff" * 8                         # beyond the group order
    else:
        x = next(x for x in range(1, 100) if pow(x ** 3 + 3, (bn254.P - 1) // 2, bn254.P) != 1)
        bad = b"\x02" + x.to_bytes(width - 1, "big")          # x^3 + 3 is not a square
    with pytest.raises(InvalidElement):
        wire.decode_ciphertexts(params, blob[:start] + bad + blob[start + width:])


def test_encrypt_requires_matching_enclave(any_params):
    manifest, blocks = codec.split(b"abc", 1, any_params.sector_bits)
    registry = EnclaveRegistry()
    wrong = registry.create(b"\x09" * 32)
    with pytest.raises(UnknownFile):
        cloud.encrypt_file(any_params, wrong, manifest, blocks)


def test_encrypt_shape_mismatch(any_params):
    manifest, _ = codec.split(b"abcd" * 4, 2, any_params.sector_bits)
    _, other_blocks = codec.split(b"abcd" * 8, 2, any_params.sector_bits)
    registry = EnclaveRegistry()
    enclave = registry.create(manifest.file_id)
    with pytest.raises(DimensionMismatch):
        cloud.encrypt_file(any_params, enclave, manifest, other_blocks)


@pytest.mark.parametrize("group", ["toy", "bn254"])
def test_encrypt_refuses_a_manifest_of_another_sector_width(group):
    # params.sector_bits is the one width: a file split at 8 bits under
    # 16-bit params is refused before anything is sealed, and a file of
    # the params' width seals only its n and s beside v and the r_ij
    params = setup(group, 16)
    data = bytes(range(1, 33))
    manifest, blocks = codec.split(data, 4, 8)
    enclave = EnclaveRegistry().create(manifest.file_id)
    with pytest.raises(DimensionMismatch, match="sector width"):
        cloud.encrypt_file(params, enclave, manifest, blocks, SeededRng(b"narrow"))
    for key in (cloud._SEAL_KEY, cloud._SEAL_RAND, cloud._SEAL_META):
        with pytest.raises(SecretNotFound):
            enclave.unseal(key)
    manifest, blocks = codec.split(data, 4, 16)
    cts, _ = cloud.encrypt_file(params, enclave, manifest, blocks, SeededRng(b"narrow"))
    assert json.loads(enclave.unseal(cloud._SEAL_META)) == {"n": manifest.n, "s": manifest.s}
    assert codec.join(manifest, cloud.decrypt_file(params, enclave, cts)) == data


# -- ciphertext tags -----------------------------------------------------------

def test_enc_tag_single_recomputed(any_params, ct_pair):
    manifest, blocks = codec.split(b"\x2a", 1, any_params.sector_bits)
    rng = SeededRng(b"etag")
    registry = EnclaveRegistry()
    enclave = registry.create(manifest.file_id)
    cts, _ = cloud.encrypt_file(any_params, enclave, manifest, blocks, rng.child("e"))
    okeys = owner.keygen(any_params, rng.child("ok"))
    gens, _ = owner.outsource(any_params, okeys, manifest, blocks, rng.child("o"))
    skeys = cloud.server_keygen(any_params, rng.child("sk"))
    v_gens = vgen_points(any_params, manifest.file_id, 1)
    tags = cloud.gen_enc_tags(any_params, skeys, manifest, cts, gens.u, v_gens)
    from sevdel.groups import block_point
    e_prime, e_dprime = ct_pair(cts, 0, 0)
    base = (block_point(any_params, manifest.file_id, 1)
            * gens.u[0] ** elem_to_scalar(e_prime)
            * v_gens[0] ** elem_to_scalar(e_dprime))
    assert tags.sigma[0] == base ** skeys.a


def test_enc_tag_pairing_oracle_and_tamper(any_params, ct_pair):
    rng, _, manifest, blocks, _, enclave, cts, _ = _setup_file(any_params)
    okeys = owner.keygen(any_params, rng.child("ok"))
    gens, _ = owner.outsource(any_params, okeys, manifest, blocks, rng.child("o"))
    skeys = cloud.server_keygen(any_params, rng.child("sk"))
    v_gens = vgen_points(any_params, manifest.file_id, manifest.s)
    tags = cloud.gen_enc_tags(any_params, skeys, manifest, cts, gens.u, v_gens)
    from sevdel.groups import block_point

    def base_for(i):
        base = block_point(any_params, manifest.file_id, i)
        for j in range(manifest.s):
            e_prime, e_dprime = ct_pair(cts, i - 1, j)
            base = base * gens.u[j] ** elem_to_scalar(e_prime)
            base = base * v_gens[j] ** elem_to_scalar(e_dprime)
        return base

    for i in range(1, manifest.n + 1):
        assert pairing_eq((tags.sigma[i - 1], any_params.g2), (base_for(i), skeys.A))

    # tampering a component after tagging breaks the equation
    group = any_params.group
    cts.rows_prime[0][0] = group.g1_add(cts.rows_prime[0][0], any_params.g1.raw)
    assert not pairing_eq((tags.sigma[0], any_params.g2), (base_for(1), skeys.A))


# -- rows missing or of the wrong size -------------------------------------------

def _malformed(rows):
    """(case, rows, error) for each way a row list can disagree with its
    matrix: a row of None (a block not held), a short, long, extra or
    missing row."""
    def swap(k, row):
        return [row if i == k else r for i, r in enumerate(rows)]
    return [
        ("None row", swap(1, None), MissingBlock),
        ("short row", swap(1, rows[1][:-1]), DimensionMismatch),
        ("long row", swap(0, rows[0] + rows[0][:1]), DimensionMismatch),
        ("extra row", [*rows, rows[0]], DimensionMismatch),
        ("missing row", rows[:-1], DimensionMismatch),
    ]


def test_malformed_ciphertext_rows_raise_sevdel_errors(any_params):
    params = any_params
    rng, _, manifest, blocks, _, enclave, cts, _ = _setup_file(params, size=12, s=2)
    okeys = owner.keygen(params, rng.child("ok"))
    gens, tags = owner.outsource(params, okeys, manifest, blocks, rng.child("o"))
    skeys = cloud.server_keygen(params, rng.child("sk"))
    v_gens = vgen_points(params, manifest.file_id, manifest.s)
    ch = owner.gen_challenge(manifest, manifest.n, b"malformed")
    for component in ("rows_prime", "rows_dprime"):
        for case, rows, error in _malformed(getattr(cts, component)):
            bad = dataclasses.replace(cts, **{component: rows})
            calls = [
                lambda: cloud.gen_enc_tags(params, skeys, manifest, bad, gens.u, v_gens),
                lambda: cloud.decrypt_file(params, enclave, bad),
                lambda: cloud.prove_encryption(params, enclave, manifest, blocks, bad, tags, ch),
                lambda: wire.encode_ciphertexts(params, bad),
            ]
            for call in calls:
                with pytest.raises(error):
                    call()
    # the honest matrix still goes through every path
    assert cloud.decrypt_file(params, enclave, cts).rows == blocks.rows
    cloud.gen_enc_tags(params, skeys, manifest, cts, gens.u, v_gens)


def _off_width(rows, k=1):
    """(case, rows, error) for each way row k can fail to be an array of
    the sector width: a list row, and an array('I') row of values from 2^31
    on, which no 8- or 16-bit manifest can decrypt."""
    def swap(row):
        return [row if i == k else r for i, r in enumerate(rows)]
    wide = array("I", range(2 ** 31 + 5, 2 ** 31 + 5 + len(rows[k])))
    return [
        ("wide row", swap(wide), DimensionMismatch),
        ("list row", swap(list(rows[k])), DimensionMismatch),
    ]


def test_malformed_block_rows_raise_sevdel_errors(any_params):
    params = any_params
    rng, _, manifest, blocks, _, _, _, _ = _setup_file(params, size=12, s=2)
    assert manifest.sector_bits < 32
    okeys = owner.keygen(params, rng.child("ok"))
    for case, rows, error in _malformed(blocks.rows) + _off_width(blocks.rows):
        bad = codec.BlockMatrix(rows)
        enclave = EnclaveRegistry().create(manifest.file_id)
        calls = [
            lambda: owner.outsource(params, okeys, manifest, bad),
            lambda: codec.join(manifest, bad),
            lambda: wire.encode_blocks(manifest, bad),
            lambda: cloud.encrypt_file(params, enclave, manifest, bad),
        ]
        for call in calls:
            with pytest.raises(error):
                call()


# -- proving -------------------------------------------------------------------

def test_prove_singleton_challenge(any_params, ct_pair):
    rng, _, manifest, blocks, _, enclave, cts, v_pub = _setup_file(any_params)
    okeys = owner.keygen(any_params, rng.child("ok"))
    gens, tags = owner.outsource(any_params, okeys, manifest, blocks, rng.child("o"))
    ch = owner.Challenge(items=((1, 1),), nonce=b"\x01" * 16)
    proof = cloud.prove_encryption(any_params, enclave, manifest, blocks, cts, tags,
                                   ch, rng.child("p"))
    for j in range(manifest.s):
        assert (proof.p1_prime[j], proof.p1_dprime[j]) == ct_pair(cts, 0, j)
        assert proof.q[j] == blocks.rows[0][j]
    assert proof.p2 == tags.phi[0]
    skeys = cloud.server_keygen(any_params, rng.child("sk"))
    assert owner.verify_encryption_proof(
        any_params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, proof)


def test_prove_rejects_bad_index(any_params):
    rng, _, manifest, blocks, _, enclave, cts, _ = _setup_file(any_params)
    _, tags = owner.outsource(any_params, owner.keygen(any_params, rng.child("k")),
                              manifest, blocks, rng.child("o"))
    ch = owner.Challenge(items=((manifest.n + 1, 1),), nonce=b"\x00" * 16)
    with pytest.raises(MalformedProof, match="outside"):
        cloud.prove_encryption(any_params, enclave, manifest, blocks, cts, tags, ch)


def test_prove_refuses_a_tag_set_of_another_length(any_params, monkeypatch):
    # a TagSet decoded from the wire with fewer or more tags than the file
    # has blocks is DimensionMismatch, before any sealed row is read
    params = any_params
    size = 64 * (params.sector_bits // 8)
    rng, _, manifest, blocks, _, enclave, cts, _ = _setup_file(params, size=size, s=1)
    assert manifest.n == 64
    _, tags = owner.outsource(params, owner.keygen(params, rng.child("k")),
                              manifest, blocks, rng.child("o"))
    ch = owner.Challenge(items=((64, 1),), nonce=b"\x03" * 16)
    unsealed = []
    monkeypatch.setattr(type(enclave), "unseal", lambda self, *args: unsealed.append(args))
    for phi in (tags.phi[:3], tags.phi + tags.phi[:1]):
        short = wire.decode_tagset(params, wire.encode_tagset(owner.TagSet(phi=phi)))
        with pytest.raises(DimensionMismatch, match="block tags"):
            cloud.prove_encryption(params, enclave, manifest, blocks, cts, short, ch)
    assert unsealed == []


def test_prove_checks_only_the_challenged_rows(any_params):
    params = any_params
    rng, _, manifest, blocks, _, enclave, cts, v_pub = _setup_file(params)
    okeys = owner.keygen(params, rng.child("ok"))
    gens, tags = owner.outsource(params, okeys, manifest, blocks, rng.child("o"))
    skeys = cloud.server_keygen(params, rng.child("sk"))
    ch = owner.Challenge(items=((2, 5), (4, 7)), nonce=b"\x02" * 16)

    def swap(rows, k, row):
        return [row if i == k else r for i, r in enumerate(rows)]

    def prove(blk, ct):
        return cloud.prove_encryption(params, enclave, manifest, blk, ct, tags, ch,
                                      rng.child("p"))

    def unheld(rows):   # blocks 1 and 3, which the challenge does not name
        return swap(swap(rows, 0, None), 2, None)

    proof = prove(codec.BlockMatrix(unheld(blocks.rows)),
                  dataclasses.replace(cts, rows_prime=unheld(cts.rows_prime),
                                      rows_dprime=unheld(cts.rows_dprime)))
    assert proof == prove(blocks, cts)
    assert owner.verify_encryption_proof(params, manifest, gens.u, okeys.W, skeys.A, v_pub,
                                         ch, proof)
    # a block row that is not an array of the sector width is refused only
    # if challenged: block 1 is not, block 4 is
    for (_, unread, _), (_, read, error) in zip(_off_width(blocks.rows, 0),
                                                _off_width(blocks.rows, 3)):
        assert prove(codec.BlockMatrix(unread), cts) == proof
        with pytest.raises(error):
            prove(codec.BlockMatrix(read), cts)
    # a challenged row (block 4) that is not held or is short still raises
    for bad, error in ((lambda row: None, MissingBlock), (lambda row: row[:-1], DimensionMismatch)):
        with pytest.raises(error):
            prove(codec.BlockMatrix(swap(blocks.rows, 3, bad(blocks.rows[3]))), cts)
        for component in ("rows_prime", "rows_dprime"):
            rows = getattr(cts, component)
            with pytest.raises(error):
                prove(blocks, dataclasses.replace(cts, **{component: swap(rows, 3, bad(rows[3]))}))


def test_wrong_v_probe(any_params):
    rng, _, manifest, blocks, _, enclave, cts, v_pub = _setup_file(any_params)
    okeys = owner.keygen(any_params, rng.child("ok"))
    gens, tags = owner.outsource(any_params, okeys, manifest, blocks, rng.child("o"))
    skeys = cloud.server_keygen(any_params, rng.child("sk"))
    ch = owner.gen_challenge(manifest, min(3, manifest.n), rng_seed=21)
    proof = cloud.prove_encryption(any_params, enclave, manifest, blocks, cts, tags,
                                   ch, rng.child("p"))
    wrong_v = v_pub * any_params.g1
    assert not owner.verify_encryption_proof(
        any_params, manifest, gens.u, okeys.W, skeys.A, wrong_v, ch, proof)


def _proved(params, seed, s):
    """An honest proof, its verifier, and the prover's witnesses R_j."""
    rng, _, manifest, blocks, _, enclave, cts, v_pub = _setup_file(params, s=s, seed=seed)
    okeys = owner.keygen(params, rng.child("ok"))
    gens, tags = owner.outsource(params, okeys, manifest, blocks, rng.child("o"))
    skeys = cloud.server_keygen(params, rng.child("sk"))
    ch = owner.gen_challenge(manifest, min(3, manifest.n), rng_seed=31)
    proof = cloud.prove_encryption(params, enclave, manifest, blocks, cts, tags,
                                   ch, rng.child("p"))
    r_blob = enclave.unseal(b"row-randomness")
    sb = params.group.scalar_bytes

    def sealed_r(i, j):
        off = (i * s + j) * sb
        return scalar_from_bytes(params.group, r_blob[off:off + sb])

    r_agg = [sum(l * sealed_r(i - 1, j) for i, l in ch.items) % params.order
             for j in range(s)]
    context = owner.enc_proof_context(params, manifest, ch)

    def verify(p):
        return owner.verify_encryption_proof(
            params, manifest, gens.u, okeys.W, skeys.A, v_pub, ch, p)

    return rng, v_pub, context, proof, r_agg, verify


def test_nizk_special_soundness_extracts_aggregates(toy_params, bn_params):
    # two accepting transcripts that share the commitments (T1, T2) but
    # answer different challenges surrender the folded witness
    # sum_j rho_j R_j, which opens X under g1 and Y under V
    for params in (toy_params, bn_params):
        _check_special_soundness(params)


def _check_special_soundness(params):
    rng, v_pub, context, proof, r_agg, _ = _proved(params, b"ss", 2)
    order, g1 = params.order, params.g1
    p1, q = list(zip(proof.p1_prime, proof.p1_dprime)), list(proof.q)
    rho = nizk._weights(order, nizk._seed(context, v_pub, p1, proof.p2, q), len(q))
    # the folded pair the statement fixes: X = prod P1''^rho, Y = prod P1'^rho g1^-sum rho Q
    x = params.g1_msm([b for _, b in p1], rho)
    y = params.g1_msm([*(a for a, _ in p1), g1],
                      [*rho, -sum(r * qj for r, qj in zip(rho, q)) % order])
    witness = sum(r * rj for r, rj in zip(rho, r_agg)) % order
    k = rng.child("k").scalar(order)
    t1, t2 = g1 ** k, v_pub ** k
    c1, c2 = 17, 23
    z1, z2 = ((k + c * witness) % order for c in (c1, c2))
    for c, z in ((c1, z1), (c2, z2)):
        assert params.g1_msm([g1, x], [z, -c]) == t1
        assert params.g1_msm([v_pub, y], [z, -c]) == t2
    extracted = (z1 - z2) * pow(c1 - c2, -1, order) % order
    assert extracted == witness
    assert g1 ** extracted == x and v_pub ** extracted == y


def test_dleq_seed_covers_the_whole_statement(toy_params):
    # the weights and the challenge come from one digest of the statement,
    # so changing any part of it must change the digest
    params = toy_params
    _, v_pub, context, proof, _, _ = _proved(params, b"seed", 2)
    g1 = params.g1
    p1, q = list(zip(proof.p1_prime, proof.p1_dprime)), list(proof.q)
    base = nizk._seed(context, v_pub, p1, proof.p2, q)
    variants = [
        (context + b"x", v_pub, p1, proof.p2, q),
        (context, v_pub * g1, p1, proof.p2, q),
        (context, v_pub, p1, proof.p2 * g1, q),
        (context, v_pub, [(p1[0][0] * g1, p1[0][1]), *p1[1:]], proof.p2, q),
        (context, v_pub, [*p1[:-1], (p1[-1][0], p1[-1][1] * g1)], proof.p2, q),
        (context, v_pub, p1, proof.p2, [(q[0] + 1) % params.order, *q[1:]]),
    ]
    seeds = {nizk._seed(*v) for v in variants}
    assert base not in seeds and len(seeds) == len(variants)


def test_prove_opening_runs_no_multi_exponentiation(any_params, monkeypatch):
    # the prover's work is g1^k, V^k and one scalar: the folded pair is
    # fixed by the statement, so it is neither computed nor hashed
    params = any_params
    rng, v_pub, context, proof, r_agg, verify = _proved(params, b"no-msm", 4)
    calls = []
    msm = groups.SystemParams.g1_msm
    monkeypatch.setattr(groups.SystemParams, "g1_msm",
                        lambda self, *a: calls.append(a) or msm(self, *a))
    p1 = list(zip(proof.p1_prime, proof.p1_dprime))
    c, z = nizk.prove_opening(params, v_pub, p1, proof.p2, list(proof.q), r_agg,
                              context, rng.child("again"))
    assert calls == []
    assert verify(dataclasses.replace(proof, challenge=c, response=z))


def test_dleq_rejects_shifted_and_swapped_sectors(any_params):
    # the tag equation sees only P2 and Q, so each forged statement reaches
    # the DLEQ; the prover re-proves it with every witness list it can form
    # from its own R_j, and the verifier must refuse each proof
    params = any_params
    rng, v_pub, context, proof, r_agg, verify = _proved(params, b"dleq", 4)
    assert verify(proof)

    def reproved(p1_prime, p1_dprime, witnesses):
        p1 = list(zip(p1_prime, p1_dprime))
        c, z = nizk.prove_opening(params, v_pub, p1, proof.p2, list(proof.q), witnesses,
                                  context, rng.child("forge"))
        return dataclasses.replace(proof, p1_prime=tuple(p1_prime),
                                   p1_dprime=tuple(p1_dprime), challenge=c, response=z)

    for j in range(len(r_agg)):
        shifted = list(proof.p1_dprime)
        shifted[j] = shifted[j] * params.g1
        bumped = r_agg[:j] + [(r_agg[j] + 1) % params.order] + r_agg[j + 1:]
        for witnesses in (r_agg, bumped):
            assert not verify(reproved(proof.p1_prime, shifted, witnesses)), j
    p1p, p1pp, swapped = list(proof.p1_prime), list(proof.p1_dprime), list(r_agg)
    for seq in (p1p, p1pp, swapped):
        seq[0], seq[1] = seq[1], seq[0]
    for witnesses in (r_agg, swapped):
        assert not verify(reproved(p1p, p1pp, witnesses))


# -- deletion ---------------------------------------------------------------------

def test_delete_lifecycle(any_params, ct_pair):
    rng, _, manifest, blocks, registry, enclave, cts, _ = _setup_file(any_params)
    _, tags = owner.outsource(any_params, owner.keygen(any_params, rng.child("k")),
                              manifest, blocks, rng.child("o"))
    ch = owner.gen_challenge(manifest, 1, rng_seed=1)
    receipt = cloud.delete_file(registry, manifest.file_id)
    assert receipt.file_id == manifest.file_id
    with pytest.raises(EnclaveDestroyed):
        cloud.decrypt_file(any_params, enclave, cts)
    with pytest.raises(EnclaveDestroyed):
        cloud.decrypt_block(any_params, enclave, ct_pair(cts, 0, 0))
    with pytest.raises(EnclaveDestroyed):
        cloud.prove_encryption(any_params, enclave, manifest, blocks, cts, tags, ch)
    with pytest.raises(UnknownFile):
        cloud.delete_file(registry, manifest.file_id)
    assert enclave.verify_zeroized()


def _toy_rows_of_every_stage(params, size, s):
    """The ciphertext rows of encrypt_file and decode_ciphertexts and the
    block rows of split, decode_blocks and decrypt_file for one toy file."""
    data = SeededRng(b"typed-rows").read(size)
    manifest, blocks = codec.split(data, s, params.sector_bits)
    enclave = EnclaveRegistry().create(manifest.file_id)
    cts, _ = cloud.encrypt_file(params, enclave, manifest, blocks, SeededRng(b"typed-enc"))
    decoded = wire.decode_ciphertexts(params, wire.encode_ciphertexts(params, cts))
    cloud_blocks = wire.decode_blocks(wire.encode_blocks(manifest, blocks))
    back = cloud.decrypt_file(params, enclave, decoded)
    assert codec.join(manifest, back) == data
    for matrix in (blocks, cloud_blocks, back):
        matrix.check_shape(manifest)
    ct_rows = [rows for m in (cts, decoded) for rows in (m.rows_prime, m.rows_dprime)]
    return ct_rows, [blocks.rows, cloud_blocks.rows, back.rows]


@pytest.mark.parametrize("bits, typecode", [(8, "B"), (16, "H"), (32, "I")])
def test_toy_rows_are_typed_arrays(bits, typecode):
    params = setup("toy", sector_bits=bits)
    ct_rows, block_rows = _toy_rows_of_every_stage(params, 200, 4)
    for rows in ct_rows:
        assert all(type(row) is array and row.typecode == "Q" and len(row) == 4 for row in rows)
    for rows in block_rows:
        assert all(type(row) is array and row.typecode == typecode and len(row) == 4
                   for row in rows)


def test_toy_rows_stay_small(toy_params):
    # 64 KiB, s = 64: 512 rows; a list of ints held about 40 B per
    # ciphertext component and 36 B per 16-bit sector
    ct_rows, block_rows = _toy_rows_of_every_stage(toy_params, 64 * 1024, 64)
    sectors = 64 * 1024 // 2
    for rows in ct_rows:
        assert sum(map(sys.getsizeof, rows)) <= 10 * sectors
    for rows in block_rows:
        assert sum(map(sys.getsizeof, rows)) <= 4 * sectors


def test_randomness_is_unsealed_one_needed_row_at_a_time(any_params, monkeypatch):
    # a proof reads the c challenged rows of r, a decryption each row once
    rng, data, manifest, blocks, _, enclave, cts, _ = _setup_file(any_params, size=96, s=2)
    okeys = owner.keygen(any_params, rng.child("ok"))
    _, tags = owner.outsource(any_params, okeys, manifest, blocks, rng.child("o"))
    reads = []
    unseal = type(enclave).unseal

    def counting(self, key, start=0, stop=None):
        out = unseal(self, key, start, stop)
        reads.append((key, len(out)))
        return out

    monkeypatch.setattr(type(enclave), "unseal", counting)
    row_bytes = manifest.s * any_params.group.scalar_bytes
    ch = owner.gen_challenge(manifest, 3, rng_seed=41)
    cloud.prove_encryption(any_params, enclave, manifest, blocks, cts, tags, ch, rng.child("p"))
    assert reads == [(cloud._SEAL_RAND, row_bytes)] * 3
    reads.clear()
    assert codec.join(manifest, cloud.decrypt_file(any_params, enclave, cts)) == data
    assert [r for r in reads if r[0] == cloud._SEAL_RAND] == [
        (cloud._SEAL_RAND, row_bytes)] * manifest.n
