"""Wire encodings: round-trips, validation, header checks."""

import json
import struct
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sevdel import cloud, codec, groups, owner, wire
from sevdel.enclave import EnclaveRegistry
from sevdel.errors import DimensionMismatch, InvalidElement, MalformedProof, SevdelError
from sevdel.groups import vgen_points
from sevdel.rng import SeededRng


def _artifacts(group, sector_bits, size):
    from sevdel.groups import setup
    params = setup(group, sector_bits)
    rng = SeededRng(b"wire")
    data = rng.child("f").read(size)
    manifest, blocks = codec.split(data, 2, params.sector_bits)
    okeys = owner.keygen(params, rng.child("k"))
    gens, tags = owner.outsource(params, okeys, manifest, blocks, rng.child("o"))
    skeys = cloud.server_keygen(params, rng.child("s"))
    registry = EnclaveRegistry()
    enclave = registry.create(manifest.file_id)
    cts, _ = cloud.encrypt_file(params, enclave, manifest, blocks, rng.child("e"))
    enc_tags = cloud.gen_enc_tags(params, skeys, manifest, cts, gens.u,
                                  vgen_points(params, manifest.file_id, manifest.s))
    ch = owner.gen_challenge(manifest, 3, rng_seed=4)
    proof = cloud.prove_encryption(params, enclave, manifest, blocks, cts, tags,
                                   ch, rng.child("p"))
    resp = owner.audit_respond(params, manifest, cts, enc_tags, ch)
    return params, manifest, blocks, tags, enc_tags, cts, ch, proof, resp


@pytest.fixture(scope="module")
def artifacts():
    return _artifacts("toy", 16, 100)


@pytest.fixture(scope="module", params=["toy", "bn254"])
def any_artifacts(request, artifacts):
    # bn254: 24 bytes in 8-bit sectors, 6 blocks of 2
    return artifacts if request.param == "toy" else _artifacts("bn254", 8, 24)


def test_tagset_roundtrip(artifacts):
    params, _, _, tags, enc_tags, *_ = artifacts
    assert wire.decode_tagset(params, wire.encode_tagset(tags)) == tags
    assert wire.decode_enc_tagset(params, wire.encode_enc_tagset(enc_tags)) == enc_tags


def test_blocks_roundtrip(artifacts):
    params, manifest, blocks, *_ = artifacts
    again = wire.decode_blocks(wire.encode_blocks(manifest, blocks))
    assert again.rows == blocks.rows


def test_ciphertext_roundtrip(artifacts):
    params, manifest, _, _, _, cts, *_ = artifacts
    blob = wire.encode_ciphertexts(params, cts)
    assert blob[:16] == wire.CIPHERTEXT_MAGIC
    assert blob[16] == wire.WIRE_VERSION
    again = wire.decode_ciphertexts(params, blob)
    assert again.v_pub == cts.v_pub
    assert (again.n, again.s) == (cts.n, cts.s)
    for i in range(cts.n):
        for j in range(cts.s):
            assert again.rows_prime[i][j] == cts.rows_prime[i][j]
            assert again.rows_dprime[i][j] == cts.rows_dprime[i][j]


def test_ciphertext_encoding_is_held_once():
    # a 256 KiB toy file, 2 x 131 072 components of 9 B: encoding its matrix
    # peaks at the output plus the growth slack of one buffer, not at a
    # second full copy of it
    from sevdel.groups import setup
    params = setup("toy", 16)
    manifest, blocks = codec.split(SeededRng(b"wire-peak").read(256 * 1024), 64, 16)
    enclave = EnclaveRegistry().create(manifest.file_id)
    cts, _ = cloud.encrypt_file(params, enclave, manifest, blocks, SeededRng(b"e"))
    tracemalloc.start()
    try:
        blob = wire.encode_ciphertexts(params, cts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(blob) > 2 * 9 * 131072
    assert peak < 1.25 * len(blob), (peak, len(blob))


def test_ciphertext_header_validation(artifacts):
    params, manifest, _, _, _, cts, *_ = artifacts
    blob = wire.encode_ciphertexts(params, cts)
    with pytest.raises(InvalidElement):
        wire.decode_ciphertexts(params, b"X" + blob[1:])     # magic
    with pytest.raises(InvalidElement):
        wire.decode_ciphertexts(params, blob[:16] + b"\x7f" + blob[17:])  # version
    with pytest.raises(InvalidElement):
        wire.decode_ciphertexts(params, blob + b"\x00")      # trailing bytes


def test_challenge_roundtrip(artifacts):
    *_, ch, proof, resp = artifacts
    assert wire.decode_challenge(wire.encode_challenge(ch)) == ch


def test_proof_roundtrip(artifacts):
    params, manifest, _, _, _, _, ch, proof, _ = artifacts
    again = wire.decode_proof(params, wire.encode_proof(params, proof))
    assert again == proof


def test_audit_response_roundtrip(artifacts, monkeypatch):
    params, *_, ch, _, resp = artifacts
    text = wire.encode_audit_response(resp)

    def no_decode(*args):
        raise AssertionError("audit response decoder decoded a group element")

    # the response carries the rows only, and they stay encodings
    monkeypatch.setattr(groups.SystemParams, "g1_from_bytes", no_decode)
    monkeypatch.setattr(type(params.group), "g1_from_bytes", no_decode)
    again = wire.decode_audit_response(params, text)
    assert again == resp
    assert again.revealed_prime == resp.revealed_prime
    assert again.revealed_dprime == resp.revealed_dprime
    assert set(again.revealed_prime) == set(ch.indices)


def test_audit_response_decoder_refuses_other_shapes(artifacts):
    params, *_, resp = artifacts
    good = json.loads(wire.encode_audit_response(resp))
    first = next(iter(good["revealed_prime"]))
    row = good["revealed_prime"][first]
    elem = row[0]
    bad_texts = [
        # the old shapes: ciphertext aggregates, and the tag aggregate Q2
        json.dumps({**good, "q1_prime": [elem], "q1_dprime": [elem]}),
        json.dumps({**good, "q2": elem}, sort_keys=True),
        json.dumps({k: v for k, v in good.items() if k != "revealed_dprime"}),
        json.dumps({**good, "revealed_prime": {"one": row}}),          # non-int row key
        # a second spelling of one index, which int() would fold into the first
        *(json.dumps({**good, "revealed_prime": {**good["revealed_prime"], alias: row}})
          for alias in ("0" + first, " " + first, "+" + first)),
        json.dumps({**good, "revealed_prime": {**good["revealed_prime"],
                                               first: ["zz", *row[1:]]}}, sort_keys=True),
        json.dumps({**good, "revealed_prime": {**good["revealed_prime"],
                                               first: [7, *row[1:]]}}, sort_keys=True),
        json.dumps({**good, "revealed_dprime": [row]}),
        json.dumps({**good, "revealed_dprime": {"1": elem}}),
        json.dumps({**good, "revealed_dprime": {"1": {v: 0 for v in row}}}),  # row not a list
        json.dumps([good]),
        "{" + json.dumps(good),
        "[" * 100000,
    ]
    for text in bad_texts:
        with pytest.raises(MalformedProof):
            wire.decode_audit_response(params, text)
    # a component of the right length that encodes no element is not
    # decoded here; it hashes to a wrong exponent at the contract
    junk = {**good["revealed_prime"], first: ["ff" * params.group.g1_bytes, *row[1:]]}
    decoded = wire.decode_audit_response(
        params, json.dumps({**good, "revealed_prime": junk}, sort_keys=True))
    assert decoded.revealed_prime[int(first)][0] == b"\xff" * params.group.g1_bytes


_SCALAR = st.none() | st.booleans() | st.integers() | st.text(max_size=20)
_FLAT = _SCALAR | st.lists(_SCALAR, max_size=4)
_JSON = _FLAT | st.lists(_FLAT, max_size=4) | st.dictionaries(st.text(max_size=4), _FLAT,
                                                               max_size=4)


def _mutant(data, text):
    """Arbitrary input, the true encoding with one field replaced by
    arbitrary JSON or laid out anew (text encodings only), with one span
    replaced, or with one span upper-cased; ``text`` may be a str or a
    bytes encoding."""
    chars = st.text if isinstance(text, str) else st.binary
    kinds = ["text", "splice", "upper"] + (["json", "layout"] if isinstance(text, str) else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "text":
        return data.draw(chars())
    if kind == "json":
        fields = json.loads(text)
        fields[data.draw(st.sampled_from(sorted(fields)))] = data.draw(_JSON)
        return json.dumps(fields)
    if kind == "layout":
        return json.dumps(json.loads(text), sort_keys=data.draw(st.booleans()),
                          indent=data.draw(st.none() | st.integers(0, 2)),
                          separators=data.draw(st.sampled_from([None, (",", ":")])))
    start = data.draw(st.integers(0, len(text)))
    end = data.draw(st.integers(start, min(len(text), start + 12)))
    middle = text[start:end].upper() if kind == "upper" else data.draw(chars(max_size=12))
    return text[:start] + middle + text[end:]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_audit_response_decoder_raises_only_sevdel_errors(artifacts, data):
    # each mutant decodes or raises a SevdelError
    params, *_, resp = artifacts
    try:
        wire.decode_audit_response(params, _mutant(data, wire.encode_audit_response(resp)))
    except SevdelError:
        pass


def test_proof_decoder_refuses_other_shapes(artifacts):
    params, *_, proof, _ = artifacts
    good = json.loads(wire.encode_proof(params, proof))
    p2 = good["p2"]
    old_nizk = {"t_open": [p2], "t_rand": [p2], "t_value": [p2], "challenge": good["challenge"],
                "z_value": [good["response"]], "z_rand": [good["response"]]}
    bad_texts = [
        json.dumps({k: v for k, v in good.items() if k not in ("challenge", "response")}
                   | {"nizk": old_nizk}),                                # the old shape
        json.dumps({**good, "nizk": old_nizk}),
        json.dumps({k: v for k, v in good.items() if k != "response"}),
        json.dumps({**good, "q": good["q"][0]}),                         # not a list
        json.dumps({**good, "p1_prime": [7]}),                           # not hex strings
        json.dumps({**good, "p1_dprime": [[p2]]}),
        json.dumps({**good, "p2": "zz"}),                                 # bad hex
        json.dumps({**good, "challenge": 7}),
        json.dumps({**good, "response": None}),
        json.dumps([good]),
        "{" + json.dumps(good),
        "[" * 100000,
    ]
    for text in bad_texts:
        with pytest.raises(MalformedProof):
            wire.decode_proof(params, text)
    with pytest.raises(InvalidElement):
        wire.decode_proof(params, json.dumps({**good, "p2": "ff" * 9}))
    with pytest.raises(InvalidElement):
        wire.decode_proof(params, json.dumps({**good, "response": "ff" * 8}))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_proof_decoder_raises_only_sevdel_errors(artifacts, data):
    # each mutant decodes or raises a SevdelError
    params, *_, proof, _ = artifacts
    try:
        wire.decode_proof(params, _mutant(data, wire.encode_proof(params, proof)))
    except SevdelError:
        pass


_BANDWIDTH_S, _BANDWIDTH_C = 8, 4


@pytest.fixture(scope="module")
def bandwidth_files():
    """(params, encoded proof, encoded audit response) on toy for files of
    n = 32 and 4096 blocks, s = 8 sectors, c = 4 challenged blocks; both
    messages verify."""
    from sevdel.contract import verify_audit_response
    from sevdel.groups import setup
    params = setup("toy", 16)
    s, c = _BANDWIDTH_S, _BANDWIDTH_C
    out = []
    for n in (32, 4096):
        rng = SeededRng(b"bandwidth-%d" % n)
        manifest, blocks = codec.split(rng.child("f").read(n * s * 2), s, 16)
        assert manifest.n == n
        okeys = owner.keygen(params, rng.child("k"))
        gens, tags = owner.outsource(params, okeys, manifest, blocks, rng.child("o"))
        enclave = EnclaveRegistry().create(manifest.file_id)
        cts, v_pub = cloud.encrypt_file(params, enclave, manifest, blocks, rng.child("e"))
        ch = owner.gen_challenge(manifest, c, rng_seed=n)
        proof = cloud.prove_encryption(params, enclave, manifest, blocks, cts, tags,
                                       ch, rng.child("p"))
        skeys = cloud.server_keygen(params, rng.child("s"))
        assert owner.verify_encryption_proof(params, manifest, gens.u, okeys.W, skeys.A,
                                             v_pub, ch, proof)
        v_gens = vgen_points(params, manifest.file_id, s)
        enc_tags = cloud.gen_enc_tags(params, skeys, manifest, cts, gens.u, v_gens)
        resp = owner.audit_respond(params, manifest, cts, enc_tags, ch)
        assert verify_audit_response(params, manifest.file_id, gens.u, v_gens, skeys.A,
                                     enc_tags.sigma, ch, resp)
        out.append((params, wire.encode_proof(params, proof), wire.encode_audit_response(resp)))
    return out


def test_proof_size_is_independent_of_file_size(bandwidth_files):
    # the owner checks encryption from 3s + 3 wire items whatever the
    # file size: s = 8 sectors, c = 4 challenged blocks, n = 32 and 4096
    texts = [proof for _, proof, _ in bandwidth_files]
    for text in texts:
        items = sum(len(v) if isinstance(v, list) else 1 for v in json.loads(text).values())
        assert items == 3 * _BANDWIDTH_S + 3
    assert len(texts[0]) == len(texts[1])


def test_audit_response_size_is_independent_of_file_size(bandwidth_files):
    # the contract checks a leak from 2cs group elements whatever the file
    # size: the c challenged rows of s components, twice; only the decimal
    # block indices that key the rows grow, with log n
    for params, _, text in bandwidth_files:
        d = json.loads(text)
        assert sorted(d) == ["revealed_dprime", "revealed_prime"]
        elems = [e for key in ("revealed_prime", "revealed_dprime")
                 for row in d[key].values() for e in row]
        assert len(elems) == 2 * _BANDWIDTH_C * _BANDWIDTH_S
        assert len(d["revealed_prime"]) == len(d["revealed_dprime"]) == _BANDWIDTH_C
        assert all(len(bytes.fromhex(e)) == params.group.g1_bytes for e in elems)


def test_decoded_proof_still_verifies_on_bn254():
    # decoding re-validates every element on the real curve
    from sevdel.groups import setup
    params = setup("bn254", 8)
    rng = SeededRng(b"wire-bn")
    data = rng.child("f").read(24)
    manifest, blocks = codec.split(data, 2, 8)
    okeys = owner.keygen(params, rng.child("k"))
    gens, tags = owner.outsource(params, okeys, manifest, blocks, rng.child("o"))
    skeys = cloud.server_keygen(params, rng.child("s"))
    registry = EnclaveRegistry()
    enclave = registry.create(manifest.file_id)
    cts, v_pub = cloud.encrypt_file(params, enclave, manifest, blocks, rng.child("e"))
    ch = owner.gen_challenge(manifest, 2, rng_seed=8)
    proof = cloud.prove_encryption(params, enclave, manifest, blocks, cts, tags,
                                   ch, rng.child("p"))
    wire_proof = wire.decode_proof(params, wire.encode_proof(params, proof))
    wire_ch = wire.decode_challenge(wire.encode_challenge(ch))
    assert owner.verify_encryption_proof(
        params, manifest, gens.u, okeys.W, skeys.A, v_pub, wire_ch, wire_proof)


# -- every decoder: each mutant decodes or raises a SevdelError ---------------------

def _encode_blocks(blocks):
    # the shape the header of a decoded matrix gave, whatever the manifest says
    shape = codec.FileManifest(bytes(32), len(blocks.rows), len(blocks.rows[0]),
                               blocks.rows[0].itemsize * 8, 1)
    return wire.encode_blocks(shape, blocks)


def _decoders(artifacts):
    """(name, decode, encode, true encoding) for every wire decoder."""
    params, manifest, blocks, tags, enc_tags, cts, ch, proof, resp = artifacts
    return [
        ("challenge", wire.decode_challenge, wire.encode_challenge, wire.encode_challenge(ch)),
        ("manifest", codec.FileManifest.from_json, codec.FileManifest.to_json,
         manifest.to_json()),
        ("proof", lambda t: wire.decode_proof(params, t),
         lambda p: wire.encode_proof(params, p), wire.encode_proof(params, proof)),
        ("audit_response", lambda t: wire.decode_audit_response(params, t),
         wire.encode_audit_response, wire.encode_audit_response(resp)),
        ("blocks", wire.decode_blocks, _encode_blocks, wire.encode_blocks(manifest, blocks)),
        ("ciphertexts", lambda b: wire.decode_ciphertexts(params, b),
         lambda c: wire.encode_ciphertexts(params, c), wire.encode_ciphertexts(params, cts)),
        ("tagset", lambda b: wire.decode_tagset(params, b), wire.encode_tagset,
         wire.encode_tagset(tags)),
        ("enc_tagset", lambda b: wire.decode_enc_tagset(params, b), wire.encode_enc_tagset,
         wire.encode_enc_tagset(enc_tags)),
    ]


_DECODER_NAMES = ["challenge", "manifest", "proof", "audit_response", "blocks",
                  "ciphertexts", "tagset", "enc_tagset"]


@pytest.mark.parametrize("name", ["challenge", "manifest", "blocks", "ciphertexts",
                                  "tagset", "enc_tagset"])
@settings(max_examples=200, deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_decoders_raise_only_sevdel_errors(artifacts, name, data):
    _, decode, _, encoded = next(d for d in _decoders(artifacts) if d[0] == name)
    try:
        decode(_mutant(data, encoded))
    except SevdelError:
        pass


@pytest.mark.parametrize("name", _DECODER_NAMES)
@settings(max_examples=100, deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_accepted_encodings_are_canonical(any_artifacts, name, data):
    # whatever a decoder accepts, its encoder writes back byte for byte:
    # one accepted artifact has one encoding
    _, decode, encode, encoded = next(d for d in _decoders(any_artifacts) if d[0] == name)
    mutant = _mutant(data, encoded)
    try:
        decoded = decode(mutant)
    except SevdelError:
        return
    assert encode(decoded) == mutant


def _spaced_upper(h):
    return " ".join(h[k:k + 2] for k in range(0, len(h), 2)).upper()


def test_text_decoders_refuse_other_spellings(any_artifacts):
    # each text below once decoded to an object equal to the honest one
    params, manifest, *_, proof, resp = any_artifacts

    def read_proof(t):
        return wire.decode_proof(params, t)

    def read_response(t):
        return wire.decode_audit_response(params, t)

    proof_text = wire.encode_proof(params, proof)
    resp_text = wire.encode_audit_response(resp)
    assert read_proof(proof_text) == proof
    assert codec.FileManifest.from_json(manifest.to_json()) == manifest
    assert read_response(resp_text) == resp
    p, m, r = json.loads(proof_text), json.loads(manifest.to_json()), json.loads(resp_text)
    i = next(iter(r["revealed_prime"]))
    row = r["revealed_prime"][i]
    upper_row = {**r["revealed_prime"], i: [row[0].upper(), *row[1:]]}
    drow = r["revealed_dprime"][i]
    spaced_row = {**r["revealed_dprime"], i: [*drow[:-1], _spaced_upper(drow[-1])]}
    cases = [
        (read_proof, proof_text,
         json.dumps({**p, "p2": _spaced_upper(p["p2"])}, sort_keys=True)),
        (read_proof, proof_text, json.dumps(p, sort_keys=True, indent=1)),
        (read_proof, proof_text, json.dumps(dict(reversed(p.items())))),
        (codec.FileManifest.from_json, manifest.to_json(),
         json.dumps({**m, "file_id": m["file_id"].upper()}, sort_keys=True)),
        (read_response, resp_text,
         json.dumps({**r, "revealed_dprime": spaced_row}, sort_keys=True)),
        (read_response, resp_text,
         json.dumps({**r, "revealed_prime": upper_row}, sort_keys=True)),
    ]
    for decode, honest, text in cases:
        assert text != honest
        with pytest.raises(MalformedProof):
            decode(text)
    # a text decoder takes the str its encoder writes, not its bytes
    with pytest.raises(MalformedProof):
        read_proof(proof_text.encode())
    with pytest.raises(MalformedProof):
        codec.FileManifest.from_json(manifest.to_json().encode())


def _group_codecs(params):
    """(name, decode, encode, true encoding, fields) for each element and
    scalar decoder; a field (start, end, modulus) is a big-endian value
    that the decoder must hold below its modulus."""
    from sevdel.groups import scalar_from_bytes, scalar_to_bytes
    group = params.group
    if group.name == "toy":
        g1_fields = g2_fields = [(1, 9, group.order)]
    else:
        from sevdel import bn254
        g1_fields = [(1, 33, int(bn254.P))]
        g2_fields = [(1, 33, int(bn254.P)), (33, 65, int(bn254.P))]
    width = group.scalar_bytes
    return [
        ("g1", params.g1_from_bytes, lambda e: e.to_bytes(),
         (params.g1 ** 0xC0FFEE).to_bytes(), g1_fields),
        ("g2", params.g2_from_bytes, lambda e: e.to_bytes(),
         (params.g2 ** 0xBEEF).to_bytes(), g2_fields),
        ("scalar", lambda b: scalar_from_bytes(group, b), lambda v: scalar_to_bytes(group, v),
         scalar_to_bytes(group, group.order - 0xC0FFEE), [(0, width, group.order)]),
    ]


@pytest.mark.parametrize("name", ["g1", "g2", "scalar"])
@settings(max_examples=60, deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_accepted_elements_and_scalars_are_canonical(any_params, name, data):
    # pins the bn254 flag byte and x < p, and toy values below the order:
    # a field plus its modulus, which a decoder reducing mod the modulus
    # would read as the true value, must be refused
    _, decode, encode, encoded, fields = next(
        c for c in _group_codecs(any_params) if c[0] == name)
    kind = data.draw(st.sampled_from(["random", "mutant", "plus-modulus"]))
    if kind == "random":
        mutant = data.draw(st.binary(min_size=len(encoded), max_size=len(encoded)))
    elif kind == "mutant":
        mutant = _mutant(data, encoded)
    else:
        start, end, modulus = data.draw(st.sampled_from(fields))
        value = int.from_bytes(encoded[start:end], "big") + modulus
        mutant = encoded[:start] + value.to_bytes(end - start, "big") + encoded[end:]
    try:
        decoded = decode(mutant)
    except SevdelError:
        return
    assert kind != "plus-modulus"
    assert encode(decoded) == mutant


def test_decoders_refuse_known_escapes(artifacts):
    # inputs that once leaked IndexError, UnicodeDecodeError, struct.error,
    # KeyError, JSONDecodeError or ValueError
    params, manifest, blocks, _, _, cts, *_ = artifacts
    blob = wire.encode_ciphertexts(params, cts)
    good_blocks = wire.encode_blocks(manifest, blocks)
    name_at = 18
    dims_at = name_at + len(params.group.name)
    width = params.group.g1_bytes
    v_pub = blob[dims_at + 8:dims_at + 8 + width]
    cases = [
        (lambda: wire.decode_ciphertexts(params, blob[:17]), InvalidElement),
        (lambda: wire.decode_ciphertexts(
            params, blob[:name_at] + b"\xff\xfe\xfd" + blob[name_at + 3:]), InvalidElement),
        (lambda: wire.decode_ciphertexts(params, blob[:name_at + 3 + 4]), InvalidElement),
        (lambda: wire.decode_tagset(params, b"\x00\x00"), InvalidElement),
        (lambda: wire.decode_enc_tagset(params, b""), InvalidElement),
        (lambda: wire.decode_blocks(b"\x00\x00"), MalformedProof),
        (lambda: wire.decode_blocks(good_blocks + b"\x00"), MalformedProof),
        (lambda: wire.decode_blocks(good_blocks[:-1]), MalformedProof),
        (lambda: wire.decode_blocks(good_blocks[:8] + b"\x07" + good_blocks[9:]),
         DimensionMismatch),
        # zero dimensions whose lengths agree with the header once looped 2**32 times
        (lambda: wire.decode_blocks(struct.pack(">IIB", 0xFFFFFFFF, 0, 8)), DimensionMismatch),
        (lambda: wire.decode_blocks(struct.pack(">IIB", 0, 0xFFFFFFFF, 8)), DimensionMismatch),
        (lambda: wire.decode_ciphertexts(
            params, blob[:dims_at] + struct.pack(">II", 0xFFFFFFFF, 0) + v_pub), InvalidElement),
        (lambda: wire.decode_ciphertexts(
            params, blob[:dims_at] + struct.pack(">II", 0, 0xFFFFFFFF) + v_pub), InvalidElement),
        (lambda: wire.decode_challenge("{"), MalformedProof),
        (lambda: wire.decode_challenge('{"items": [[1, "zz"]], "nonce": ""}'), MalformedProof),
        (lambda: wire.decode_challenge('{"items": [[true, "1"]], "nonce": ""}'),
         MalformedProof),
        (lambda: wire.decode_challenge('{"items": []}'), MalformedProof),
        (lambda: codec.FileManifest.from_json("{}"), MalformedProof),
        (lambda: codec.FileManifest.from_json("[" * 100000), MalformedProof),
        (lambda: codec.FileManifest.from_json(
            manifest.to_json().replace('"n": %d' % manifest.n, '"n": "3"')), MalformedProof),
        (lambda: codec.FileManifest.from_json(
            manifest.to_json().replace('"n": %d' % manifest.n, '"n": 0')), DimensionMismatch),
    ]
    for call, error in cases:
        with pytest.raises(error):
            call()
    assert codec.FileManifest.from_json(manifest.to_json()) == manifest


# -- bn254 E'' rows: checked on a Jacobi symbol, decoded only where read --------------

def _check_agrees_with_decode(data):
    """g1_check_bytes refuses exactly what g1_from_bytes refuses."""
    from sevdel import bn254
    try:
        bn254.g1_from_bytes(data)
    except InvalidElement:
        with pytest.raises(InvalidElement):
            bn254.g1_check_bytes(data)
        return False
    bn254.g1_check_bytes(data)
    return True


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_jacobi_check_accepts_exactly_what_decodes(data):
    from sevdel import bn254
    valid = bn254.g1_to_bytes(bn254.g1_hash(data.draw(st.binary(max_size=8))))
    kind = data.draw(st.sampled_from(["random", "flag-and-x", "byte", "bit"]))
    if kind == "random":
        encoding = data.draw(st.binary(min_size=33, max_size=33))
    elif kind == "flag-and-x":
        # x below p + 2^8 and every flag: about half the x < p are on the curve
        x = data.draw(st.integers(0, int(bn254.P) + 255))
        encoding = bytes([data.draw(st.integers(0, 4))]) + x.to_bytes(32, "big")
    else:
        k = data.draw(st.integers(0, 32))
        flip = (1 << data.draw(st.integers(0, 7)) if kind == "bit"
                else data.draw(st.integers(1, 255)))
        encoding = valid[:k] + bytes([valid[k] ^ flip]) + valid[k + 1:]
    _check_agrees_with_decode(encoding)


def test_jacobi_check_explicit_cases():
    from sevdel import bn254
    p = int(bn254.P)
    valid = bn254.g1_to_bytes(bn254.g1_hash(b"explicit"))
    identity = bn254.g1_to_bytes(None)
    cases = [bytes([flag]) + x.to_bytes(32, "big")
             for x in (p - 1, p, p + 1, 2 ** 256 - 1) for flag in (2, 3)]
    cases += [bytes([flag]) + valid[1:] for flag in range(5)]
    cases += [bytes([flag]) + identity[1:] for flag in range(5)]
    cases += [identity[:k] + b"\x01" + identity[k + 1:] for k in (1, 16, 32)]
    cases += [valid[:32], valid + b"\x00", identity[:32], b""]
    verdicts = [_check_agrees_with_decode(c) for c in cases]
    # x >= p, flags 0, 1 and 4 on a nonzero x, a nonzero identity body and
    # every wrong length are refused; the flips of valid and the identity pass
    assert verdicts[2:8] == [False] * 6
    assert verdicts[8:13] == [False, False, True, True, False]
    assert verdicts[13:18] == [True, False, False, False, False]
    assert verdicts[18:] == [False] * 7


@pytest.fixture(scope="module")
def bn_artifacts():
    return _artifacts("bn254", 8, 24)


@pytest.fixture
def decodes(monkeypatch):
    """Every encoding bn254.g1_from_bytes is called on, in order."""
    from sevdel import bn254
    calls = []
    real = bn254.g1_from_bytes

    def counting(data):
        calls.append(bytes(data))
        return real(data)

    monkeypatch.setattr(bn254, "g1_from_bytes", counting)
    return calls


def test_decoded_dprime_rows_decode_only_what_is_read(bn_artifacts, decodes):
    params, manifest, blocks, tags, enc_tags, cts, ch, proof, resp = bn_artifacts
    n, s = manifest.n, manifest.s
    blob = wire.encode_ciphertexts(params, cts)
    decoded = wire.decode_ciphertexts(params, blob)
    assert len(decodes) == n * s + 1                     # V and every E', no E''
    assert wire.encode_ciphertexts(params, decoded) == blob
    assert owner.audit_respond(params, manifest, decoded, enc_tags, ch) == resp
    assert len(decodes) == n * s + 1                     # both emit the stored bytes
    del decodes[:]
    registry = EnclaveRegistry()
    enclave = registry.create(manifest.file_id)
    fresh, _ = cloud.encrypt_file(params, enclave, manifest, blocks, SeededRng(b"count-enc"))
    decoded = wire.decode_ciphertexts(params, wire.encode_ciphertexts(params, fresh))
    del decodes[:]
    from_points = cloud.prove_encryption(params, enclave, manifest, blocks, fresh, tags, ch,
                                         SeededRng(b"count-proof"))
    assert decodes == []
    from_decoded = cloud.prove_encryption(params, enclave, manifest, blocks, decoded, tags,
                                          ch, SeededRng(b"count-proof"))
    assert from_decoded == from_points
    challenged = [i - 1 for i in ch.indices]
    assert sorted(decodes) == sorted(decoded.rows_dprime[i].encodings[j]
                                     for i in challenged for j in range(s))
    del decodes[:]
    row = decoded.rows_dprime[challenged[0]]                 # already read: no decode
    assert [row[j] for j in range(s)] + list(row) == [*fresh.rows_dprime[challenged[0]]] * 2
    unread = next(i for i in range(n) if i not in challenged)
    row = decoded.rows_dprime[unread]
    assert (row[0], row[-s], row[0]) == (fresh.rows_dprime[unread][0],) * 3
    assert len(row) == s and len(decodes) == 1


def test_decoded_dprime_row_refuses_a_bad_component(bn_artifacts):
    # the header and E' decode, then the one off-curve E'' is refused
    from sevdel import bn254
    params, manifest, _, _, _, cts, *_ = bn_artifacts
    blob = wire.encode_ciphertexts(params, cts)
    x = next(x for x in range(1, 100) if bn254._jacobi(x ** 3 + 3, bn254.P) == -1)
    bad = b"\x03" + x.to_bytes(32, "big")
    last = len(blob) - 33
    with pytest.raises(InvalidElement, match="not on curve"):
        wire.decode_ciphertexts(params, blob[:last] + bad)
    with pytest.raises(IndexError):
        wire.decode_ciphertexts(params, blob).rows_dprime[0][manifest.s]


def test_identity_public_key_is_refused_on_decode(any_artifacts):
    params, _, _, _, _, cts, *_ = any_artifacts
    blob = wire.encode_ciphertexts(params, cts)
    v_at = 18 + len(params.group.name) + 8
    width = params.group.g1_bytes
    identity = params.g1_identity().to_bytes()
    assert blob[v_at:v_at + width] == cts.v_pub.to_bytes()
    with pytest.raises(InvalidElement, match="identity"):
        wire.decode_ciphertexts(params, blob[:v_at] + identity + blob[v_at + width:])


# -- toy rows: decoded and encoded whole, as the per-component codec would ----------

_TOY_EDGES = [0, 1, groups.ToyBackend.order - 1, groups.ToyBackend.order, 2 ** 64 - 1]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_toy_row_codec_agrees_with_the_component_codec(data):
    import sys
    from array import array
    toy = groups.get_backend("toy")
    values = data.draw(st.lists(st.one_of(st.sampled_from(_TOY_EDGES),
                                          st.integers(0, 2 ** 64 - 1)), max_size=12))
    encodings = toy.g1_row_encodings(values)
    assert encodings == [toy.g1_to_bytes(a) for a in values]
    assert all(type(e) is bytes for e in encodings)
    blob = bytearray(b"".join(encodings))
    kind = data.draw(st.sampled_from(["none", "tag", "value", "byte", "length"]))
    if kind == "tag" and values:
        k = data.draw(st.integers(0, len(values) - 1))      # the last tag included
        blob[9 * k] = data.draw(st.integers(0, 255).filter(lambda b: b != 0x11))
    elif kind == "value" and values:
        k = data.draw(st.integers(0, len(values) - 1))
        blob[9 * k + 1:9 * k + 9] = data.draw(st.sampled_from(_TOY_EDGES)).to_bytes(8, "big")
    elif kind == "byte" and values:
        k = data.draw(st.integers(0, len(blob) - 1))
        blob[k] ^= data.draw(st.integers(1, 255))
    elif kind == "length":
        # 9k + 1 or 9k - 1 bytes: a byte added or cut, anywhere
        k = data.draw(st.integers(0, len(blob)))
        if data.draw(st.booleans()) or not blob:
            blob[k:k] = bytes([data.draw(st.integers(0, 255))])
        else:
            del blob[min(k, len(blob) - 1)]
    blob = bytes(blob)
    try:
        expected = [toy.g1_from_bytes(blob[k:k + 9]) for k in range(0, len(blob), 9)]
    except InvalidElement:
        with pytest.raises(InvalidElement):
            toy.g1_row_from_bytes(blob)
        return
    row = toy.g1_row_from_bytes(blob)
    assert type(row) is array and row.typecode == "Q" and list(row) == expected
    assert sys.getsizeof(row) == sys.getsizeof(array("Q", expected))    # right-sized
    assert toy.g1_row_decode == toy.g1_row_from_bytes       # E' and E'' rows alike
    assert toy.g1_row_encodings(row) == [toy.g1_to_bytes(a) for a in row]
    assert b"".join(toy.g1_row_encodings(row)) == blob
