"""Packed binary and canonical JSON encodings for protocol artifacts.

Group elements travel in the fixed-width compressed form defined by the
backend; every decoder re-validates elements (on-curve plus subgroup), so
nothing deserialized can smuggle in a bad point.
"""

from __future__ import annotations

import json
import struct

from .cloud import CiphertextMatrix, EncProof, EncTagSet
from .codec import _SECTOR_FMT, BlockMatrix, FileManifest
from .errors import InvalidElement
from .groups import G1Elem, SystemParams, scalar_from_bytes, scalar_to_bytes
from .nizk import EncNizk
from .owner import AuditResponse, Challenge, TagSet

CIPHERTEXT_MAGIC = b"SEVDELCTXMATRIX\x00"   # 16 bytes
WIRE_VERSION = 1


def _pack_elems(elems) -> bytes:
    return b"".join(e.to_bytes() for e in elems)


def _unpack_elems(params: SystemParams, data: bytes, count: int) -> tuple[G1Elem, ...]:
    width = params.group.g1_bytes
    if len(data) != count * width:
        raise InvalidElement("element array length mismatch")
    return tuple(
        params.g1_from_bytes(data[k * width:(k + 1) * width]) for k in range(count)
    )


# -- tag sets ------------------------------------------------------------------

def encode_tagset(tags: TagSet) -> bytes:
    return struct.pack(">I", len(tags.phi)) + _pack_elems(tags.phi)


def decode_tagset(params: SystemParams, data: bytes) -> TagSet:
    (count,) = struct.unpack_from(">I", data)
    return TagSet(phi=_unpack_elems(params, data[4:], count))


def encode_enc_tagset(tags: EncTagSet) -> bytes:
    return struct.pack(">I", len(tags.sigma)) + _pack_elems(tags.sigma)


def decode_enc_tagset(params: SystemParams, data: bytes) -> EncTagSet:
    (count,) = struct.unpack_from(">I", data)
    return EncTagSet(sigma=_unpack_elems(params, data[4:], count))


# -- block matrix ----------------------------------------------------------------

def encode_blocks(manifest: FileManifest, blocks: BlockMatrix) -> bytes:
    blocks.check_shape(manifest)
    fmt = "<%d%s" % (manifest.s, _SECTOR_FMT[manifest.sector_bits])
    out = bytearray(struct.pack(">IIB", manifest.n, manifest.s, manifest.sector_bits))
    for row in blocks.rows:
        out += struct.pack(fmt, *row)
    return bytes(out)


def decode_blocks(data: bytes) -> BlockMatrix:
    n, s, sector_bits = struct.unpack_from(">IIB", data)
    fmt = "<%d%s" % (s, _SECTOR_FMT[sector_bits])
    row_bytes = s * (sector_bits // 8)
    rows = [
        list(struct.unpack_from(fmt, data, 9 + i * row_bytes))
        for i in range(n)
    ]
    return BlockMatrix(rows)


# -- ciphertext matrix -------------------------------------------------------------

def encode_ciphertexts(params: SystemParams, cts: CiphertextMatrix) -> bytes:
    group = params.group
    name = group.name.encode()
    out = bytearray()
    out += CIPHERTEXT_MAGIC
    out += bytes([WIRE_VERSION, len(name)])
    out += name
    out += struct.pack(">II", cts.n, cts.s)
    out += cts.v_pub.to_bytes()
    to_bytes = group.g1_to_bytes
    for rows in (cts.rows_prime, cts.rows_dprime):
        for row in rows:
            for raw in row:
                out += to_bytes(raw)
    return bytes(out)


def decode_ciphertexts(params: SystemParams, data: bytes) -> CiphertextMatrix:
    if data[:16] != CIPHERTEXT_MAGIC:
        raise InvalidElement("bad ciphertext file magic")
    version = data[16]
    if version != WIRE_VERSION:
        raise InvalidElement(f"unsupported ciphertext wire version {version}")
    name_len = data[17]
    name = data[18:18 + name_len].decode()
    if name != params.group.name:
        raise InvalidElement(f"ciphertext encoded for group {name!r}")
    off = 18 + name_len
    n, s = struct.unpack_from(">II", data, off)
    off += 8
    width = params.group.g1_bytes
    v_pub = params.g1_from_bytes(data[off:off + width])
    off += width
    from_bytes = params.group.g1_from_bytes

    def read_matrix():
        nonlocal off
        rows = []
        for _ in range(n):
            row = []
            for _ in range(s):
                row.append(from_bytes(data[off:off + width]))
                off += width
            rows.append(row)
        return rows

    rows_prime = read_matrix()
    rows_dprime = read_matrix()
    if off != len(data):
        raise InvalidElement("trailing bytes after ciphertext matrix")
    return CiphertextMatrix(rows_prime=rows_prime, rows_dprime=rows_dprime,
                            v_pub=v_pub, n=n, s=s)


# -- challenge / proof / audit response (canonical JSON) -----------------------------

def encode_challenge(challenge: Challenge) -> str:
    return challenge.canonical_json()


def decode_challenge(text: str) -> Challenge:
    d = json.loads(text)
    items = tuple((int(i), int(l, 16)) for i, l in d["items"])
    return Challenge(items=items, nonce=bytes.fromhex(d["nonce"]))


def encode_proof(params: SystemParams, proof: EncProof) -> str:
    group = params.group
    return json.dumps(
        {
            "p1_prime": [e.hex() for e in proof.p1_prime],
            "p1_dprime": [e.hex() for e in proof.p1_dprime],
            "p2": proof.p2.hex(),
            "q": [scalar_to_bytes(group, v).hex() for v in proof.q],
            "nizk": {
                "t_open": [e.hex() for e in proof.nizk.t_open],
                "t_rand": [e.hex() for e in proof.nizk.t_rand],
                "t_value": [e.hex() for e in proof.nizk.t_value],
                "challenge": scalar_to_bytes(group, proof.nizk.challenge).hex(),
                "z_value": [scalar_to_bytes(group, z).hex() for z in proof.nizk.z_value],
                "z_rand": [scalar_to_bytes(group, z).hex() for z in proof.nizk.z_rand],
            },
        },
        sort_keys=True,
    )


def decode_proof(params: SystemParams, text: str) -> EncProof:
    d = json.loads(text)

    def elems(values):
        return tuple(params.g1_from_bytes(bytes.fromhex(v)) for v in values)

    def scalars(values):
        return tuple(scalar_from_bytes(params.group, bytes.fromhex(v)) for v in values)

    nz = d["nizk"]
    nizk = EncNizk(
        t_open=elems(nz["t_open"]),
        t_rand=elems(nz["t_rand"]),
        t_value=elems(nz["t_value"]),
        challenge=scalar_from_bytes(params.group, bytes.fromhex(nz["challenge"])),
        z_value=scalars(nz["z_value"]),
        z_rand=scalars(nz["z_rand"]),
    )
    return EncProof(
        p1_prime=elems(d["p1_prime"]),
        p1_dprime=elems(d["p1_dprime"]),
        p2=params.g1_from_bytes(bytes.fromhex(d["p2"])),
        q=scalars(d["q"]),
        nizk=nizk,
    )


def encode_audit_response(resp: AuditResponse) -> str:
    return json.dumps(
        {
            "q1_prime": [e.hex() for e in resp.q1_prime],
            "q1_dprime": [e.hex() for e in resp.q1_dprime],
            "q2": resp.q2.hex(),
            "revealed_prime": {str(i): [e.hex() for e in row]
                               for i, row in sorted(resp.revealed_prime.items())},
            "revealed_dprime": {str(i): [e.hex() for e in row]
                                for i, row in sorted(resp.revealed_dprime.items())},
        },
        sort_keys=True,
    )


def decode_audit_response(params: SystemParams, text: str) -> AuditResponse:
    d = json.loads(text)

    def elems(values):
        return tuple(params.g1_from_bytes(bytes.fromhex(v)) for v in values)

    return AuditResponse(
        q1_prime=elems(d["q1_prime"]),
        q1_dprime=elems(d["q1_dprime"]),
        q2=params.g1_from_bytes(bytes.fromhex(d["q2"])),
        revealed_prime={int(i): elems(row) for i, row in d["revealed_prime"].items()},
        revealed_dprime={int(i): elems(row) for i, row in d["revealed_dprime"].items()},
    )
