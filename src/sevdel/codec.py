"""File <-> sector-matrix codec.

A file is split into n blocks of s sectors each; a sector is the
little-endian value of its 1, 2 or 4 bytes.  Sector values are therefore
bounded by 2^sector_bits, which is what keeps lifted-ElGamal decryption
(a bounded discrete log) feasible.  The tail block is zero-padded and the
manifest records the true byte length so joining is exact.

Each row of a BlockMatrix is one typed ``array`` of the sector width
('B', 'H' or 'I'): about 2 B per 16-bit sector, where a list of ints
costs 36 B.  Such an array cannot hold a value outside [0, 2^sector_bits),
so BlockMatrix.check_shape, which refuses any other row, is the one check
that every sector fits the manifest's width.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from dataclasses import dataclass

from .errors import DimensionMismatch, EmptyFile, InvariantViolation, MalformedProof, MissingBlock

_SECTOR_FMT = {8: "B", 16: "H", 32: "I"}     # array typecode per sector width
SECTOR_WIDTHS = tuple(_SECTOR_FMT)           # the allowed sector widths, in bits
if array("I").itemsize != 4:
    raise InvariantViolation("32-bit sectors need a 4-byte array('I')")
_BIG_ENDIAN = sys.byteorder == "big"      # arrays hold native order; sectors are little-endian


def decode_canonical(text: str, build, encode, what: str):
    """build(json.loads(text)), accepted only if encode writes it back as
    exactly text: one spelling per artifact, JSON layout and hex case
    included.  MalformedProof for text that is not a str, does not parse,
    has the wrong shape or is not canonical; an error that build raises
    itself (InvalidElement, DimensionMismatch) passes through."""
    try:
        result = build(json.loads(text))
    # JSONDecodeError is a ValueError; json raises RecursionError on deep nesting
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError) as exc:
        raise MalformedProof(f"{what} does not decode: {exc}") from exc
    if not isinstance(text, str) or encode(result) != text:
        raise MalformedProof(f"{what} is not in its canonical encoding")
    return result


@dataclass(frozen=True)
class FileManifest:
    """Identity and shape of one outsourced file."""

    file_id: bytes
    n: int
    s: int
    sector_bits: int
    original_len: int

    def __post_init__(self):
        if not (isinstance(self.file_id, bytes) and len(self.file_id) == 32):
            raise MalformedProof("manifest file_id must be 32 bytes, as file_identity gives")
        if self.n < 1 or self.s < 1 or self.original_len < 1:
            raise DimensionMismatch("manifest requires n, s and original_len >= 1")
        if self.sector_bits not in SECTOR_WIDTHS:
            raise DimensionMismatch(f"sector_bits must be one of {SECTOR_WIDTHS}")
        if self.n * self.s * (self.sector_bits // 8) < self.original_len:
            raise DimensionMismatch("matrix capacity below original length")

    def to_json(self) -> str:
        return json.dumps(
            {
                "file_id": self.file_id.hex(),
                "n": self.n,
                "s": self.s,
                "sector_bits": self.sector_bits,
                "original_len": self.original_len,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FileManifest":
        """Decode a manifest, raising only SevdelError: MalformedProof for
        text other than what to_json writes, integer sizes included,
        DimensionMismatch for a shape the constructor refuses."""
        def build(d):
            sizes = {k: d[k] for k in ("n", "s", "sector_bits", "original_len")}
            if any(type(v) is not int for v in sizes.values()):
                raise MalformedProof("manifest sizes must be integers")
            return cls(file_id=bytes.fromhex(d["file_id"]), **sizes)
        return decode_canonical(text, build, cls.to_json, "manifest")


@dataclass
class BlockMatrix:
    """n x s sector values; rows[i][j] is block i+1, sector j+1.

    Each row is an array of the sector width, as split, the wire decoder
    and decryption build it; check_shape refuses any other row.
    """

    rows: list

    def check_shape(self, manifest: FileManifest, only=None) -> None:
        """check_rows for the manifest's n x s and sector width."""
        check_rows(self.rows, manifest.n, manifest.s, "block rows", only,
                   _SECTOR_FMT[manifest.sector_bits])


def check_rows(rows, n: int, s: int, what: str, only=None, typecode=None) -> None:
    """MissingBlock for a row of None (a block the holder does not
    possess), DimensionMismatch unless rows holds n rows of s entries,
    each an array of typecode when one is given.  With only, 0-based
    indices below n, the count and just those rows are checked."""
    if len(rows) != n:
        raise DimensionMismatch(f"{what}: {len(rows)} rows, expected {n}")
    for i in range(n) if only is None else only:
        row = rows[i]
        if row is None:
            raise MissingBlock(f"{what}: block {i + 1} not held")
        if len(row) != s:
            raise DimensionMismatch(f"{what}: block {i + 1} has {len(row)} entries, expected {s}")
        if typecode is not None and (type(row) is not array or row.typecode != typecode):
            raise DimensionMismatch(
                f"{what}: block {i + 1} is not an array('{typecode}') of the sector width")


def file_identity(content: bytes, owner_id: bytes = b"", file_name: bytes = b"") -> bytes:
    """I_M: digest binding owner, name and content digest of the file."""
    h = hashlib.sha256()
    h.update(b"sevdel/file-id:")
    h.update(len(owner_id).to_bytes(4, "big") + owner_id)
    h.update(len(file_name).to_bytes(4, "big") + file_name)
    h.update(hashlib.sha256(content).digest())
    return h.digest()


def split(
    data: bytes,
    s: int,
    sector_bits: int,
    owner_id: bytes = b"",
    file_name: bytes = b"",
) -> tuple[FileManifest, BlockMatrix]:
    """Split a byte string into its n x s sector matrix.

    n = ceil(len / (s * sector_bits/8)); the final block is zero-padded.
    """
    if sector_bits not in SECTOR_WIDTHS:
        raise ValueError(f"sector_bits must be one of {SECTOR_WIDTHS}")
    if s < 1:
        raise ValueError("s must be >= 1")
    if len(data) == 0:
        raise EmptyFile("cannot split an empty file")
    block_bytes = s * (sector_bits // 8)
    n = -(-len(data) // block_bytes)
    padded = data + b"\x00" * (n * block_bytes - len(data))
    rows = rows_from_bytes(sector_bits, padded, 0, n, s)
    manifest = FileManifest(
        file_id=file_identity(data, owner_id, file_name),
        n=n,
        s=s,
        sector_bits=sector_bits,
        original_len=len(data),
    )
    return manifest, BlockMatrix(rows)


def sector_row(sector_bits: int, values) -> array:
    """One block row: values in an array of the sector width; OverflowError
    for a value that is negative or not below 2^sector_bits."""
    return array(_SECTOR_FMT[sector_bits], values)


def rows_from_bytes(sector_bits: int, data: bytes, offset: int, n: int, s: int) -> list:
    """n rows of s little-endian sectors read from data at offset, each an
    array of the sector width; data must hold them all."""
    width = s * (sector_bits // 8)
    rows = [sector_row(sector_bits, data[off:off + width])
            for off in range(offset, offset + n * width, width)]
    if _BIG_ENDIAN:
        for row in rows:
            row.byteswap()
    return rows


def pack_rows(rows) -> bytes:
    """Little-endian sector bytes of rows that check_shape has passed."""
    out = []
    for row in rows:
        if _BIG_ENDIAN:
            row = row[:]    # swap a copy: the matrix keeps native order
            row.byteswap()
        out.append(row.tobytes())
    return b"".join(out)


def join(manifest: FileManifest, blocks: BlockMatrix) -> bytes:
    """Inverse of split: exact original bytes, truncated at original_len."""
    blocks.check_shape(manifest)
    return pack_rows(blocks.rows)[: manifest.original_len]
