"""Packed binary and canonical JSON encodings for protocol artifacts.

Each artifact has one encoding: a decoder accepts only what its encoder
writes back byte for byte.  Group elements travel in the fixed-width
compressed form defined by the backend.  Every decoder re-validates the
elements it returns (on-curve plus subgroup), so nothing deserialized can
smuggle in a bad point.  On bn254 the E'' rows of a ciphertext matrix are
validated without being decoded (a Jacobi symbol instead of a square
root) and keep their encodings until a proof reads a component; on toy
each ciphertext row is decoded, and encoded, whole.  The one
exception is the revealed ciphertext rows of an audit response, which are
all such a response carries: they stay encodings, checked for length
only, because the contract never uses them as points.  It hashes them,
and a string that is not the canonical encoding of the registered
ciphertext hashes to another exponent and fails the audit's pairing
equation.
"""

from __future__ import annotations

import io
import json
import struct

from .cloud import CiphertextMatrix, EncProof, EncTagSet
from .codec import (SECTOR_WIDTHS, BlockMatrix, FileManifest, decode_canonical, pack_rows,
                    rows_from_bytes)
from .errors import DimensionMismatch, InvalidElement, MalformedProof
from .groups import G1Elem, SystemParams, scalar_from_bytes, scalar_to_bytes
from .owner import AuditResponse, Challenge, TagSet

CIPHERTEXT_MAGIC = b"SEVDELCTXMATRIX\x00"   # 16 bytes
WIRE_VERSION = 2


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


def _count_prefixed(params: SystemParams, data: bytes) -> tuple[G1Elem, ...]:
    if len(data) < 4:
        raise InvalidElement("element array shorter than its count prefix")
    (count,) = struct.unpack_from(">I", data)
    return _unpack_elems(params, data[4:], count)


def decode_tagset(params: SystemParams, data: bytes) -> TagSet:
    return TagSet(phi=_count_prefixed(params, data))


def encode_enc_tagset(tags: EncTagSet) -> bytes:
    return struct.pack(">I", len(tags.sigma)) + _pack_elems(tags.sigma)


def decode_enc_tagset(params: SystemParams, data: bytes) -> EncTagSet:
    return EncTagSet(sigma=_count_prefixed(params, data))


# -- block matrix ----------------------------------------------------------------

def encode_blocks(manifest: FileManifest, blocks: BlockMatrix) -> bytes:
    blocks.check_shape(manifest)
    return (struct.pack(">IIB", manifest.n, manifest.s, manifest.sector_bits)
            + pack_rows(blocks.rows))


def decode_blocks(data: bytes) -> BlockMatrix:
    """Decode a block matrix, raising only SevdelError: MalformedProof for
    a length that disagrees with the header, DimensionMismatch for a zero
    dimension or a sector width other than 8, 16 or 32 bits."""
    if len(data) < 9:
        raise MalformedProof("block matrix shorter than its header")
    n, s, sector_bits = struct.unpack_from(">IIB", data)
    if n < 1 or s < 1:
        raise DimensionMismatch(f"block matrix dimensions {n}x{s} must be at least 1x1")
    if sector_bits not in SECTOR_WIDTHS:
        raise DimensionMismatch(f"sector_bits {sector_bits} is not one of {SECTOR_WIDTHS}")
    if len(data) != 9 + n * s * (sector_bits // 8):
        raise MalformedProof("block matrix length disagrees with its header")
    return BlockMatrix(rows_from_bytes(sector_bits, data, 9, n, s))


# -- ciphertext matrix -------------------------------------------------------------

def encode_ciphertexts(params: SystemParams, cts: CiphertextMatrix) -> bytes:
    """The header's n x s and every row of both components; MissingBlock
    or DimensionMismatch for a matrix whose rows disagree with it.

    The rows go into a BytesIO, whose getvalue() hands over its own buffer
    when nothing else holds it, so the encoded matrix is held once and
    not copied at the end."""
    cts.check_dims(cts.n, cts.s)
    group = params.group
    name = group.name.encode()
    out = io.BytesIO()
    out.write(CIPHERTEXT_MAGIC)
    out.write(bytes([WIRE_VERSION, len(name)]))
    out.write(name)
    out.write(struct.pack(">II", cts.n, cts.s))
    out.write(cts.v_pub.to_bytes())
    encodings = group.g1_row_encodings
    for rows in (cts.rows_prime, cts.rows_dprime):
        for row in rows:
            out.write(b"".join(encodings(row)))
    return out.getvalue()


def decode_ciphertexts(params: SystemParams, data: bytes) -> CiphertextMatrix:
    """Decode the matrix, raising only InvalidElement: for a bad header,
    a V that is the identity (E' would then carry g1^m in the clear) and
    any component that is not a valid element encoding.

    V and every E' are decoded, since decryption reads E' as points: each
    E' row is one call of the backend's g1_row_decode, which on bn254
    decodes component by component (a square root each, no Jacobi check
    on top) and on toy decodes the whole row at once.  The E'' rows are
    the backend's g1_row_from_bytes: on bn254 each component is checked
    without a square root and kept as its encoding, decoded only where a
    proof reads it; on toy it is the same whole-row decoder as for E'.
    """
    if len(data) < 18 or data[:16] != CIPHERTEXT_MAGIC:
        raise InvalidElement("bad ciphertext file magic")
    version = data[16]
    if version != WIRE_VERSION:
        raise InvalidElement(f"unsupported ciphertext wire version {version}")
    name_len = data[17]
    name = data[18:18 + name_len]
    if name != params.group.name.encode():
        raise InvalidElement(f"ciphertext encoded for group {name!r}")
    off = 18 + name_len
    width = params.group.g1_bytes
    if len(data) < off + 8:
        raise InvalidElement("ciphertext header truncated")
    n, s = struct.unpack_from(">II", data, off)
    off += 8
    if n < 1 or s < 1:
        raise InvalidElement(f"ciphertext dimensions {n}x{s} must be at least 1x1")
    if len(data) != off + (1 + 2 * n * s) * width:
        raise InvalidElement("ciphertext length disagrees with its header")
    v_pub = params.g1_from_bytes(data[off:off + width])
    if v_pub == params.g1_identity():
        raise InvalidElement("ciphertext public key V is the identity")
    off += width
    group = params.group
    row_decode, row_from_bytes = group.g1_row_decode, group.g1_row_from_bytes
    row_bytes = s * width
    dprime_at = off + n * row_bytes
    rows_prime = [row_decode(data[r:r + row_bytes]) for r in range(off, dprime_at, row_bytes)]
    rows_dprime = [row_from_bytes(data[r:r + row_bytes])
                   for r in range(dprime_at, len(data), row_bytes)]
    return CiphertextMatrix(rows_prime=rows_prime, rows_dprime=rows_dprime,
                            v_pub=v_pub, n=n, s=s)


# -- challenge / proof / audit response (canonical JSON) -----------------------------
#
# Each text decoder builds its object and hands it to codec.decode_canonical,
# which compares the re-encoding with the text.  The checks left in the
# builders are for values a round trip cannot see: wrong, yet re-encoding to
# themselves.

def encode_challenge(challenge: Challenge) -> str:
    return challenge.canonical_json()


def decode_challenge(text: str) -> Challenge:
    """Decode a challenge, raising only MalformedProof: the text must be
    exactly what encode_challenge writes, and Challenge checks its items."""
    def build(d):
        items = tuple((index, int(coefficient, 16)) for index, coefficient in d["items"])
        return Challenge(items=items, nonce=bytes.fromhex(d["nonce"]))
    return decode_canonical(text, build, encode_challenge, "challenge")


def encode_proof(params: SystemParams, proof: EncProof) -> str:
    group = params.group
    return json.dumps(
        {
            "p1_prime": [e.hex() for e in proof.p1_prime],
            "p1_dprime": [e.hex() for e in proof.p1_dprime],
            "p2": proof.p2.hex(),
            "q": [scalar_to_bytes(group, v).hex() for v in proof.q],
            "challenge": scalar_to_bytes(group, proof.challenge).hex(),
            "response": scalar_to_bytes(group, proof.response).hex(),
        },
        sort_keys=True,
    )


def decode_proof(params: SystemParams, text: str) -> EncProof:
    """Decode an encryption proof, raising only SevdelError: MalformedProof
    for text other than what encode_proof writes, InvalidElement for a
    bad point or scalar."""
    def elem(h):
        return params.g1_from_bytes(bytes.fromhex(h))

    def scalar(h):
        return scalar_from_bytes(params.group, bytes.fromhex(h))

    def build(d):
        return EncProof(
            p1_prime=tuple(map(elem, d["p1_prime"])),
            p1_dprime=tuple(map(elem, d["p1_dprime"])),
            p2=elem(d["p2"]),
            q=tuple(map(scalar, d["q"])),
            challenge=scalar(d["challenge"]),
            response=scalar(d["response"]),
        )
    return decode_canonical(text, build, lambda proof: encode_proof(params, proof), "proof")


def encode_audit_response(resp: AuditResponse) -> str:
    return json.dumps(
        {
            "revealed_prime": {str(i): [e.hex() for e in row]
                               for i, row in sorted(resp.revealed_prime.items())},
            "revealed_dprime": {str(i): [e.hex() for e in row]
                                for i, row in sorted(resp.revealed_dprime.items())},
        },
        sort_keys=True,
    )


def decode_audit_response(params: SystemParams, text: str) -> AuditResponse:
    """Decode an audit response, raising only MalformedProof: for text
    other than what encode_audit_response writes, any key besides the two
    row maps included, or for a row component that is not one element
    encoding long.  Nothing is decoded as a point; see the module
    docstring."""
    width = params.group.g1_bytes

    def component(h):
        data = bytes.fromhex(h)
        if len(data) != width:
            raise MalformedProof(f"revealed component must be {width} bytes")
        return data

    def rows(mapping):
        return {int(i): tuple(map(component, row)) for i, row in mapping.items()}

    def build(d):
        return AuditResponse(
            revealed_prime=rows(d["revealed_prime"]),
            revealed_dprime=rows(d["revealed_dprime"]),
        )
    return decode_canonical(text, build, encode_audit_response, "audit response")
